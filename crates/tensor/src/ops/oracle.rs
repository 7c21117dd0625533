//! Test oracles: the direct convolution and permute loops that the
//! vectorizable kernels in [`super::conv`] and [`super::manip`] replaced,
//! the cache-blocked row-axpy loop that the register-tiled kernel in
//! [`super::matmul`] replaced, and the per-element broadcast, axis and
//! activation loops that the row-wise elementwise kernels replaced, kept
//! verbatim; the conv weight gradient's direct loops, summing each batch
//! element's plane on its own; and a one-element-at-a-time dropout. Each output element here
//! receives its f32 operations one at a time in the defining order, so a
//! bit-for-bit match against these loops is the kernel contract (DESIGN.md
//! §6b). Shapes are assumed valid; the property tests below only feed
//! shapes the real kernels accept.
#![cfg(test)]

use super::conv::Pad1d;
use crate::shape::{broadcast_shapes, strides_of};
use crate::tensor::broadcast_strides;
use crate::Tensor;
use std::ops::Range;

const MIN_WORK_PER_BAND: usize = 1 << 15;

/// k-dimension cache-block: a `KC × n` panel of the rhs stays hot in L2 while
/// it is streamed against every row of a band.
const KC: usize = 128;

/// Minimum flops a band must carry before it is worth a thread.
const MIN_FLOPS_PER_BAND: usize = 1 << 16;

/// The shared inner kernel: accumulate `band` (rows `rows` of the output,
/// row-major with stride `n`) for a 2-D product with inner dimension `k`.
/// `row_a` maps a global output-row index to the offset of its lhs row, and
/// `row_b` maps it to the base offset of its rhs matrix (non-zero only for
/// batched products).
#[allow(clippy::too_many_arguments)]
fn matmul_band(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    rows: Range<usize>,
    band: &mut [f32],
    row_a: impl Fn(usize) -> usize,
    row_b: impl Fn(usize) -> usize,
) {
    for k0 in (0..k).step_by(KC) {
        let k1 = (k0 + KC).min(k);
        for (local, gi) in rows.clone().enumerate() {
            let abase = row_a(gi);
            let bbase = row_b(gi);
            let arow = &a[abase + k0..abase + k1];
            let orow = &mut band[local * n..(local + 1) * n];
            for (pp, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue; // sparse inputs (z-scored zero days) are common
                }
                let brow = &b[bbase + (k0 + pp) * n..bbase + (k0 + pp + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    }
}

/// `[b, m, k] · [b, k, n] → [b, m, n]` through [`matmul_band`]; a 2-D
/// product is the batch-1 case.
pub fn batched_matmul(lhs: &Tensor, rhs: &Tensor) -> Tensor {
    let [ba, m, k] = dims3(lhs);
    let n = rhs.shape()[2];
    let a = lhs.data();
    let b = rhs.data();
    let mut out = vec![0.0f32; ba * m * n];
    let min_rows = (MIN_FLOPS_PER_BAND / (2 * k * n).max(1)).max(1);
    if m > 0 {
        sthsl_parallel::parallel_rows_mut(&mut out, ba * m, n, min_rows, |rows, band| {
            matmul_band(
                a,
                b,
                k,
                n,
                rows,
                band,
                |gi| (gi / m) * m * k + (gi % m) * k,
                |gi| (gi / m) * k * n,
            );
        });
    }
    Tensor::from_vec(out, &[ba, m, n]).unwrap()
}

pub fn conv2d(x_t: &Tensor, weight: &Tensor, bias: Option<&Tensor>, pad: (usize, usize)) -> Tensor {
    let [b, cin, h, w] = dims4(x_t);
    let [cout, _, kh, kw] = dims4(weight);
    let (ph, pw) = pad;
    let oh = h + 2 * ph - (kh - 1);
    let ow = w + 2 * pw - (kw - 1);
    let x = x_t.data();
    let wt = weight.data();
    let bias_data = bias.map(Tensor::data);
    let mut out = vec![0.0f32; b * cout * oh * ow];
    let per_plane = oh * ow * cin * kh * kw;
    let min_planes = (MIN_WORK_PER_BAND / per_plane.max(1)).max(1);
    sthsl_parallel::parallel_rows_mut(&mut out, b * cout, oh * ow, min_planes, |planes, band| {
        for (local, plane) in planes.enumerate() {
            let (bi, co) = (plane / cout, plane % cout);
            let bias_v = bias_data.map_or(0.0, |bd| bd[co]);
            let oplane = &mut band[local * oh * ow..(local + 1) * oh * ow];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias_v;
                    for ci in 0..cin {
                        let xbase = ((bi * cin + ci) * h) * w;
                        let wbase = ((co * cin + ci) * kh) * kw;
                        for ky in 0..kh {
                            let iy = oy + ky;
                            if iy < ph || iy >= h + ph {
                                continue;
                            }
                            let iy = iy - ph;
                            for kx in 0..kw {
                                let ix = ox + kx;
                                if ix < pw || ix >= w + pw {
                                    continue;
                                }
                                let ix = ix - pw;
                                acc += x[xbase + iy * w + ix] * wt[wbase + ky * kw + kx];
                            }
                        }
                    }
                    oplane[oy * ow + ox] = acc;
                }
            }
        }
    });
    Tensor::from_vec(out, &[b, cout, oh, ow]).unwrap()
}

pub fn conv2d_grad_input(
    grad_out: &Tensor,
    weight: &Tensor,
    input_shape: &[usize],
    pad: (usize, usize),
) -> Tensor {
    let [b, cout, oh, ow] = dims4(grad_out);
    let [_, cin, kh, kw] = dims4(weight);
    let (ph, pw) = pad;
    let (h, w) = (input_shape[2], input_shape[3]);
    let go = grad_out.data();
    let wt = weight.data();
    let mut gx = vec![0.0f32; b * cin * h * w];
    let per_batch = cout * oh * ow * cin * kh * kw;
    let min_rows = (MIN_WORK_PER_BAND / per_batch.max(1)).max(1);
    sthsl_parallel::parallel_rows_mut(&mut gx, b, cin * h * w, min_rows, |batches, band| {
        for (local, bi) in batches.enumerate() {
            let gblock = &mut band[local * cin * h * w..(local + 1) * cin * h * w];
            for co in 0..cout {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = go[((bi * cout + co) * oh + oy) * ow + ox];
                        if g == 0.0 {
                            continue;
                        }
                        for ci in 0..cin {
                            let xbase = (ci * h) * w;
                            let wbase = ((co * cin + ci) * kh) * kw;
                            for ky in 0..kh {
                                let iy = oy + ky;
                                if iy < ph || iy >= h + ph {
                                    continue;
                                }
                                let iy = iy - ph;
                                for kx in 0..kw {
                                    let ix = ox + kx;
                                    if ix < pw || ix >= w + pw {
                                        continue;
                                    }
                                    let ix = ix - pw;
                                    gblock[xbase + iy * w + ix] += g * wt[wbase + ky * kw + kx];
                                }
                            }
                        }
                    }
                }
            }
        }
    });
    Tensor::from_vec(gx, input_shape).unwrap()
}

/// The weight gradient in the kernel contract's order: for each weight,
/// each batch element's `g·x` terms summed over its output plane in
/// `(oy, ox)` order from `+0.0`, a zero `g` and a tap in the padding
/// skipped, and the plane sums added to the weight's total in batch order.
pub fn conv2d_grad_weight(
    grad_out: &Tensor,
    input: &Tensor,
    weight_shape: &[usize],
    pad: (usize, usize),
) -> Tensor {
    let [b, cout, oh, ow] = dims4(grad_out);
    let [_, cin, h, w] = dims4(input);
    let (kh, kw) = (weight_shape[2], weight_shape[3]);
    let (ph, pw) = pad;
    let go = grad_out.data();
    let x = input.data();
    let mut gw = vec![0.0f32; cout * cin * kh * kw];
    let per_cout = b * oh * ow * cin * kh * kw;
    let min_rows = (MIN_WORK_PER_BAND / per_cout.max(1)).max(1);
    sthsl_parallel::parallel_rows_mut(&mut gw, cout, cin * kh * kw, min_rows, |couts, band| {
        for (local, co) in couts.enumerate() {
            let gblock = &mut band[local * cin * kh * kw..(local + 1) * cin * kh * kw];
            for bi in 0..b {
                let mut part = vec![0.0f32; cin * kh * kw];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = go[((bi * cout + co) * oh + oy) * ow + ox];
                        if g == 0.0 {
                            continue;
                        }
                        for ci in 0..cin {
                            let xbase = ((bi * cin + ci) * h) * w;
                            let wbase = (ci * kh) * kw;
                            for ky in 0..kh {
                                let iy = oy + ky;
                                if iy < ph || iy >= h + ph {
                                    continue;
                                }
                                let iy = iy - ph;
                                for kx in 0..kw {
                                    let ix = ox + kx;
                                    if ix < pw || ix >= w + pw {
                                        continue;
                                    }
                                    let ix = ix - pw;
                                    part[wbase + ky * kw + kx] += g * x[xbase + iy * w + ix];
                                }
                            }
                        }
                    }
                }
                for (total, &sum) in gblock.iter_mut().zip(&part) {
                    *total += sum;
                }
            }
        }
    });
    Tensor::from_vec(gw, weight_shape).unwrap()
}

pub fn conv1d(
    x_t: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    pad: Pad1d,
    dilation: usize,
) -> Tensor {
    let [b, cin, l] = dims3(x_t);
    let [cout, _, k] = dims3(weight);
    let ol = l + pad.left + pad.right - dilation * (k - 1);
    let x = x_t.data();
    let wt = weight.data();
    let bias_data = bias.map(Tensor::data);
    let mut out = vec![0.0f32; b * cout * ol];
    let per_plane = ol * cin * k;
    let min_planes = (MIN_WORK_PER_BAND / per_plane.max(1)).max(1);
    sthsl_parallel::parallel_rows_mut(&mut out, b * cout, ol, min_planes, |planes, band| {
        for (local, plane) in planes.enumerate() {
            let (bi, co) = (plane / cout, plane % cout);
            let bias_v = bias_data.map_or(0.0, |bd| bd[co]);
            let oplane = &mut band[local * ol..(local + 1) * ol];
            for (o, slot) in oplane.iter_mut().enumerate() {
                let mut acc = bias_v;
                for ci in 0..cin {
                    let xbase = (bi * cin + ci) * l;
                    let wbase = (co * cin + ci) * k;
                    for kk in 0..k {
                        let ip = o + kk * dilation;
                        if ip < pad.left || ip >= l + pad.left {
                            continue;
                        }
                        acc += x[xbase + ip - pad.left] * wt[wbase + kk];
                    }
                }
                *slot = acc;
            }
        }
    });
    Tensor::from_vec(out, &[b, cout, ol]).unwrap()
}

pub fn conv1d_grad_input(
    grad_out: &Tensor,
    weight: &Tensor,
    input_shape: &[usize],
    pad: Pad1d,
    dilation: usize,
) -> Tensor {
    let [b, cout, ol] = dims3(grad_out);
    let [_, cin, k] = dims3(weight);
    let l = input_shape[2];
    let go = grad_out.data();
    let wt = weight.data();
    let mut gx = vec![0.0f32; b * cin * l];
    let per_batch = cout * ol * cin * k;
    let min_rows = (MIN_WORK_PER_BAND / per_batch.max(1)).max(1);
    sthsl_parallel::parallel_rows_mut(&mut gx, b, cin * l, min_rows, |batches, band| {
        for (local, bi) in batches.enumerate() {
            let gblock = &mut band[local * cin * l..(local + 1) * cin * l];
            for co in 0..cout {
                for o in 0..ol {
                    let g = go[(bi * cout + co) * ol + o];
                    if g == 0.0 {
                        continue;
                    }
                    for ci in 0..cin {
                        let wbase = (co * cin + ci) * k;
                        for kk in 0..k {
                            let ip = o + kk * dilation;
                            if ip < pad.left || ip >= l + pad.left {
                                continue;
                            }
                            gblock[ci * l + ip - pad.left] += g * wt[wbase + kk];
                        }
                    }
                }
            }
        }
    });
    Tensor::from_vec(gx, input_shape).unwrap()
}

/// [`conv2d_grad_weight`]'s order over one row of dilated taps.
pub fn conv1d_grad_weight(
    grad_out: &Tensor,
    input: &Tensor,
    weight_shape: &[usize],
    pad: Pad1d,
    dilation: usize,
) -> Tensor {
    let [b, cout, ol] = dims3(grad_out);
    let [_, cin, l] = dims3(input);
    let k = weight_shape[2];
    let go = grad_out.data();
    let x = input.data();
    let mut gw = vec![0.0f32; cout * cin * k];
    let per_cout = b * ol * cin * k;
    let min_rows = (MIN_WORK_PER_BAND / per_cout.max(1)).max(1);
    sthsl_parallel::parallel_rows_mut(&mut gw, cout, cin * k, min_rows, |couts, band| {
        for (local, co) in couts.enumerate() {
            let gblock = &mut band[local * cin * k..(local + 1) * cin * k];
            for bi in 0..b {
                let mut part = vec![0.0f32; cin * k];
                for o in 0..ol {
                    let g = go[(bi * cout + co) * ol + o];
                    if g == 0.0 {
                        continue;
                    }
                    for ci in 0..cin {
                        let xbase = (bi * cin + ci) * l;
                        for kk in 0..k {
                            let ip = o + kk * dilation;
                            if ip < pad.left || ip >= l + pad.left {
                                continue;
                            }
                            part[ci * k + kk] += g * x[xbase + ip - pad.left];
                        }
                    }
                }
                for (total, &sum) in gblock.iter_mut().zip(&part) {
                    *total += sum;
                }
            }
        }
    });
    Tensor::from_vec(gw, weight_shape).unwrap()
}

/// The bias gradient of a conv with a contiguous `[B, Cout, ..]`
/// `grad_out`: per out-channel, each batch element's plane summed by
/// `Iterator::sum`, added in batch order.
pub fn conv_grad_bias(grad_out: &Tensor) -> Tensor {
    let (b, cout) = (grad_out.shape()[0], grad_out.shape()[1]);
    let plane: usize = grad_out.shape()[2..].iter().product();
    let mut gb = vec![0.0f32; cout];
    for bi in 0..b {
        for (co, total) in gb.iter_mut().enumerate() {
            *total += grad_out.data()[(bi * cout + co) * plane..][..plane].iter().sum::<f32>();
        }
    }
    Tensor::from_vec(gb, &[cout]).unwrap()
}

pub fn permute(t: &Tensor, perm: &[usize]) -> Tensor {
    let ndim = t.ndim();
    let in_shape = t.shape();
    let out_shape: Vec<usize> = perm.iter().map(|&p| in_shape[p]).collect();
    let in_strides = strides_of(in_shape);
    let gather_strides: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
    let mut out = vec![0.0f32; t.len()];
    let x = t.data();
    let mut idx = vec![0usize; ndim];
    for slot in &mut out {
        let mut off = 0usize;
        for d in 0..ndim {
            off += idx[d] * gather_strides[d];
        }
        *slot = x[off];
        for d in (0..ndim).rev() {
            idx[d] += 1;
            if idx[d] < out_shape[d] {
                break;
            }
            idx[d] = 0;
        }
    }
    Tensor::from_vec(out, &out_shape).unwrap()
}

/// `Tensor::zip_map` with broadcasting: one odometer step per element.
pub fn zip_map(lhs: &Tensor, rhs: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    let out_shape = broadcast_shapes(lhs.shape(), rhs.shape()).unwrap();
    let out_len: usize = out_shape.iter().product();
    let mut data = vec![0.0f32; out_len];
    let lhs_bstrides = broadcast_strides(lhs.shape(), &out_shape);
    let rhs_bstrides = broadcast_strides(rhs.shape(), &out_shape);
    let ndim = out_shape.len();
    let mut idx = vec![0usize; ndim];
    for slot in &mut data {
        let mut l = 0usize;
        let mut r = 0usize;
        for d in 0..ndim {
            l += idx[d] * lhs_bstrides[d];
            r += idx[d] * rhs_bstrides[d];
        }
        *slot = f(lhs.data()[l], rhs.data()[r]);
        // advance odometer
        for d in (0..ndim).rev() {
            idx[d] += 1;
            if idx[d] < out_shape[d] {
                break;
            }
            idx[d] = 0;
        }
    }
    Tensor::from_vec(data, &out_shape).unwrap()
}

/// `Tensor::reduce_to_shape`: every source element added onto its target
/// element in source order, one odometer step per element.
pub fn reduce_to_shape(t: &Tensor, target_shape: &[usize]) -> Tensor {
    if t.shape() == target_shape {
        return t.clone();
    }
    let mut out = Tensor::zeros(target_shape);
    let tgt_bstrides = broadcast_strides(target_shape, t.shape());
    let ndim = t.ndim();
    let mut idx = vec![0usize; ndim];
    for &v in t.data() {
        let mut off = 0usize;
        for d in 0..ndim {
            off += idx[d] * tgt_bstrides[d];
        }
        out.data_mut()[off] += v;
        for d in (0..ndim).rev() {
            idx[d] += 1;
            if idx[d] < t.shape()[d] {
                break;
            }
            idx[d] = 0;
        }
    }
    out
}

/// `Tensor::sum_axis` (`mean = false`) and `Tensor::mean_axis`.
pub fn reduce_axis(t: &Tensor, axis: usize, mean: bool) -> Tensor {
    let shape = t.shape();
    let out_shape: Vec<usize> =
        shape.iter().enumerate().filter(|(i, _)| *i != axis).map(|(_, &d)| d).collect();
    let axis_len = shape[axis];
    let strides = strides_of(shape);
    let outer: usize = shape[..axis].iter().product();
    let inner: usize = shape[axis + 1..].iter().product();
    let mut out = vec![0.0f32; outer * inner];
    let x = t.data();
    let min_rows = (MIN_WORK_PER_BAND / (axis_len * inner).max(1)).max(1);
    sthsl_parallel::parallel_rows_mut(&mut out, outer, inner, min_rows, |outers, band| {
        for (local, o) in outers.enumerate() {
            let orow = &mut band[local * inner..(local + 1) * inner];
            for a in 0..axis_len {
                let base = o * axis_len * inner + a * strides[axis];
                let xrow = &x[base..base + inner];
                for (ov, &xv) in orow.iter_mut().zip(xrow) {
                    *ov += xv;
                }
            }
            if mean && axis_len > 0 {
                let inv = 1.0 / axis_len as f32;
                for v in orow.iter_mut() {
                    *v *= inv;
                }
            }
        }
    });
    Tensor::from_vec(out, &out_shape).unwrap()
}

/// `Tensor::repeat_axis`: one row copy per repeat, whatever the row length.
pub fn repeat_axis(t: &Tensor, axis: usize, axis_len: usize) -> Tensor {
    let mut out_shape = t.shape().to_vec();
    out_shape.insert(axis, axis_len);
    let outer: usize = t.shape()[..axis].iter().product();
    let inner: usize = t.shape()[axis..].iter().product();
    let x = t.data();
    let mut out = vec![0.0f32; outer * axis_len * inner];
    for o in 0..outer {
        let src = &x[o * inner..(o + 1) * inner];
        for a in 0..axis_len {
            let dst_base = (o * axis_len + a) * inner;
            out[dst_base..dst_base + inner].copy_from_slice(src);
        }
    }
    Tensor::from_vec(out, &out_shape).unwrap()
}

/// `Tensor::leaky_relu`: the branchy form.
pub fn leaky_relu(x: &Tensor, alpha: f32) -> Tensor {
    x.map(move |v| if v > 0.0 { v } else { alpha * v })
}

/// `Tensor::leaky_relu_grad`: the branchy form.
pub fn leaky_relu_grad(g: &Tensor, x: &Tensor, alpha: f32) -> Tensor {
    g.zip_map(x, move |gv, xv| if xv > 0.0 { gv } else { alpha * gv }).unwrap()
}

/// `Tensor::dropout`: one element at a time, branching on its mask bits.
pub fn dropout(x: &Tensor, key: u64, keep: f32) -> Tensor {
    let threshold = (keep * 16_777_216.0) as u32;
    let kept = |i: usize| crate::init::mask_bits(key, i as u32) < threshold;
    let out = x.data().iter().enumerate();
    let out = out.map(|(i, &v)| if kept(i) { v * (1.0 / keep) } else { v * 0.0 });
    Tensor::from_vec(out.collect(), x.shape()).unwrap()
}

fn dims4(t: &Tensor) -> [usize; 4] {
    [t.shape()[0], t.shape()[1], t.shape()[2], t.shape()[3]]
}

fn dims3(t: &Tensor) -> [usize; 3] {
    [t.shape()[0], t.shape()[1], t.shape()[2]]
}

/// Seeded property tests: every conv kernel, `permute` and the matmul
/// family must match their oracles bit for bit on shapes that exercise
/// clipping from every side, partial register tiles and conv batches that
/// fill part of one 16-lane panel, all of one or several, and on values that
/// exercise the zero skips (exact zeros in `grad_out` and in matmul lhs
/// operands, `-0.0`, NaN and ±∞ in every operand). The elementwise and
/// broadcast kernels must match theirs over size-1, missing and zero-length
/// axes, with subnormals among the values too. The conv, matmul and
/// elementwise cases run once per vector level the CPU has (SSE2, and AVX2
/// where detected), so each of the kernels' dispatched copies is checked.
mod tests {
    use super::Pad1d;
    use crate::ops::conv::ConvView;
    use crate::{broadcast_shapes, Tensor};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// `simd::at_each_level`, serialised: the tests run on parallel threads
    /// and the level it holds is process-global.
    #[expect(
        clippy::disallowed_types,
        reason = "R2: a test-harness lock serialising the process-global SIMD level"
    )]
    fn at_each_level(f: impl FnMut(&'static str)) {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        crate::simd::at_each_level(f);
    }

    /// Cases per conv kernel family.
    const CASES: usize = 400;

    /// A value drawn from a mix of normal numbers, signed zeros and, when
    /// `special`, NaN and ±∞. `zeros` is the chance of an exact zero.
    fn value(rng: &mut StdRng, zeros: f64, special: bool) -> f32 {
        if rng.gen_bool(zeros) {
            return if rng.gen_bool(0.5) { 0.0 } else { -0.0 };
        }
        if special && rng.gen_bool(0.06) {
            return [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.gen_range(0..3usize)];
        }
        rng.gen_range(-2.0f32..2.0)
    }

    fn tensor(rng: &mut StdRng, shape: &[usize], zeros: f64, special: bool) -> Tensor {
        let n = shape.iter().product();
        Tensor::from_vec((0..n).map(|_| value(rng, zeros, special)).collect(), shape).unwrap()
    }

    /// Bit-for-bit equality. Two NaNs count as equal whatever their payload:
    /// Rust does not specify which NaN an operation returns, so payload bits
    /// are not part of the kernel contract.
    fn assert_bits(label: &str, got: &Tensor, want: &Tensor) {
        assert_eq!(got.shape(), want.shape(), "{label}: shape");
        for (i, (a, b)) in got.data().iter().zip(want.data()).enumerate() {
            let same = a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
            assert!(
                same,
                "{label}: element {i}: {a:?} ({:#x}) vs {b:?} ({:#x})",
                a.to_bits(),
                b.to_bits()
            );
        }
    }

    #[test]
    fn conv2d_kernels_match_oracle_bits() {
        at_each_level(conv2d_cases);
    }

    /// A conv2d case: `(b, cin, cout, h, w, kh, kw, pad)`.
    type Conv2dShape = (usize, usize, usize, usize, usize, usize, usize, (usize, usize));

    /// Fixed conv2d rows checked before the random ones: the local spatial
    /// conv's shape.
    const CONV2D_ROWS: [Conv2dShape; 1] = [(224, 4, 4, 8, 8, 3, 3, (1, 1))];

    fn conv2d_cases(level: &str) {
        let mut rng = StdRng::seed_from_u64(0xc2d);
        let mut checked = 0;
        while checked < CASES {
            // Channel counts run past the weight gradient's 8-lane and
            // 8-tap blocks, so full blocks and every padded tail occur.
            let (b, cin, cout, h, w, kh, kw, pad) = match CONV2D_ROWS.get(checked) {
                Some(&row) => row,
                None => {
                    let (b, cin, cout) = (
                        rng.gen_range(1..41usize),
                        rng.gen_range(1..11usize),
                        rng.gen_range(1..20usize),
                    );
                    let (h, w) = (rng.gen_range(1..10usize), rng.gen_range(1..10usize));
                    let (kh, kw) = (rng.gen_range(1..6usize), rng.gen_range(1..6usize));
                    (b, cin, cout, h, w, kh, kw, (rng.gen_range(0..kh), rng.gen_range(0..kw)))
                }
            };
            if h + 2 * pad.0 < kh || w + 2 * pad.1 < kw {
                continue;
            }
            checked += 1;
            let special = rng.gen_bool(0.5);
            let x = tensor(&mut rng, &[b, cin, h, w], 0.1, special);
            let wt = tensor(&mut rng, &[cout, cin, kh, kw], 0.1, special);
            let bias = tensor(&mut rng, &[cout], 0.5, false);
            let (oh, ow) = (h + 2 * pad.0 + 1 - kh, w + 2 * pad.1 + 1 - kw);
            let go = tensor(&mut rng, &[b, cout, oh, ow], 0.4, special);
            let label = format!(
                "{level} b{b} {cin}->{cout} {h}x{w} k{kh}x{kw} pad{pad:?} special={special}"
            );
            check_conv2d(&label, &x, &wt, &bias, &go, pad);
        }
    }

    /// Every conv2d kernel against its oracle on one case: the forward pass
    /// with and without bias, and the input, weight and bias gradients of
    /// `go`.
    fn check_conv2d(
        label: &str,
        x: &Tensor,
        wt: &Tensor,
        bias: &Tensor,
        go: &Tensor,
        pad: (usize, usize),
    ) {
        let y = x.conv2d(wt, Some(bias), pad).unwrap();
        assert_bits(&format!("conv2d {label}"), &y, &super::conv2d(x, wt, Some(bias), pad));
        let y0 = x.conv2d(wt, None, pad).unwrap();
        assert_bits(&format!("conv2d nobias {label}"), &y0, &super::conv2d(x, wt, None, pad));
        assert_bits(
            &format!("conv2d_grad_input {label}"),
            &Tensor::conv2d_grad_input(go, wt, x.shape(), pad).unwrap(),
            &super::conv2d_grad_input(go, wt, x.shape(), pad),
        );
        assert_bits(
            &format!("conv2d_grad_weight {label}"),
            &Tensor::conv2d_grad_weight(go, x, wt.shape(), pad).unwrap(),
            &super::conv2d_grad_weight(go, x, wt.shape(), pad),
        );
        assert_bits(
            &format!("conv2d_grad_bias {label}"),
            &Tensor::conv2d_grad_bias(go).unwrap(),
            &super::conv_grad_bias(go),
        );
    }

    #[test]
    fn conv1d_kernels_match_oracle_bits() {
        at_each_level(conv1d_cases);
    }

    /// A conv1d case: `(b, cin, cout, l, k, dilation, pad)`.
    type Conv1dShape = (usize, usize, usize, usize, usize, usize, Pad1d);

    /// Fixed conv1d rows checked before the random ones: the local temporal
    /// and the global temporal conv's shapes, and GWN's dilated causal conv.
    const CONV1D_ROWS: [Conv1dShape; 3] = [
        (1024, 4, 4, 14, 3, 1, Pad1d { left: 1, right: 1 }),
        (4096, 1, 1, 14, 3, 1, Pad1d { left: 1, right: 1 }),
        (64, 8, 16, 14, 3, 2, Pad1d { left: 4, right: 0 }),
    ];

    fn conv1d_cases(level: &str) {
        let mut rng = StdRng::seed_from_u64(0xc1d);
        let mut checked = 0;
        while checked < CASES {
            let (b, cin, cout, l, k, dilation, pad) = match CONV1D_ROWS.get(checked) {
                Some(&row) => row,
                None => {
                    // Every eighth case has the global temporal conv's
                    // shape: one channel in and out over a long batch. The
                    // others run their channel counts past the weight
                    // gradient's 8-lane and 8-tap blocks.
                    let (b, cin, cout) = if checked % 8 == 0 {
                        (rng.gen_range(41..300usize), 1, 1)
                    } else {
                        (
                            rng.gen_range(1..41usize),
                            rng.gen_range(1..11usize),
                            rng.gen_range(1..20usize),
                        )
                    };
                    let l = rng.gen_range(1..12usize);
                    let k = rng.gen_range(1..6usize);
                    let dilation = rng.gen_range(1..4usize);
                    let pad = match rng.gen_range(0..3usize) {
                        0 => Pad1d::same(k),
                        1 => Pad1d::causal(k, dilation),
                        _ => {
                            Pad1d { left: rng.gen_range(0..2 * k), right: rng.gen_range(0..2 * k) }
                        }
                    };
                    (b, cin, cout, l, k, dilation, pad)
                }
            };
            if l + pad.left + pad.right < dilation * (k - 1) + 1 {
                continue;
            }
            checked += 1;
            let special = rng.gen_bool(0.5);
            let x = tensor(&mut rng, &[b, cin, l], 0.1, special);
            let wt = tensor(&mut rng, &[cout, cin, k], 0.1, special);
            let bias = tensor(&mut rng, &[cout], 0.5, false);
            let ol = l + pad.left + pad.right - dilation * (k - 1);
            let go = tensor(&mut rng, &[b, cout, ol], 0.4, special);
            let label = format!(
                "{level} b{b} {cin}->{cout} l{l} k{k} d{dilation} {pad:?} special={special}"
            );
            check_conv1d(&label, &x, &wt, &bias, &go, pad, dilation);
        }
    }

    /// Every conv1d kernel against its oracle on one case: the forward
    /// pass, and the input, weight and bias gradients of `go`.
    fn check_conv1d(
        label: &str,
        x: &Tensor,
        wt: &Tensor,
        bias: &Tensor,
        go: &Tensor,
        pad: Pad1d,
        dilation: usize,
    ) {
        assert_bits(
            &format!("conv1d {label}"),
            &x.conv1d(wt, Some(bias), pad, dilation).unwrap(),
            &super::conv1d(x, wt, Some(bias), pad, dilation),
        );
        assert_bits(
            &format!("conv1d_grad_input {label}"),
            &Tensor::conv1d_grad_input(go, wt, x.shape(), pad, dilation).unwrap(),
            &super::conv1d_grad_input(go, wt, x.shape(), pad, dilation),
        );
        assert_bits(
            &format!("conv1d_grad_weight {label}"),
            &Tensor::conv1d_grad_weight(go, x, wt.shape(), pad, dilation).unwrap(),
            &super::conv1d_grad_weight(go, x, wt.shape(), pad, dilation),
        );
        assert_bits(
            &format!("conv1d_grad_bias {label}"),
            &Tensor::conv1d_grad_bias(go).unwrap(),
            &super::conv_grad_bias(go),
        );
    }

    /// Fixed rows for the forward and input-gradient tiles, at each vector
    /// level and at 1 and 4 threads:
    /// - the model's 4→4 spatial and temporal shapes with one non-finite
    ///   weight (∞, then NaN), in the last out-channel's last tap only: the
    ///   input gradient's weight scan must reach it, or a zero `grad_out`
    ///   meets it as `0·∞ = NaN` where the oracle skips the term;
    /// - 5, 6 and 7 channels, a block of four plus a tail, with 2 channels
    ///   on the other side, whose pass folds four panels per channel;
    /// - 1→1 batches of `64·k + r`, so the four-panel tile meets every
    ///   remainder, in one band and (at 4 threads) in several.
    #[test]
    fn conv_tiles_match_oracle_bits() {
        for threads in [1, 4] {
            sthsl_parallel::set_num_threads(threads);
            at_each_level(|level| tile_cases(&format!("{level} t{threads}")));
        }
        sthsl_parallel::set_num_threads(0);
    }

    fn tile_cases(level: &str) {
        let mut rng = StdRng::seed_from_u64(0x711e);
        let same = Pad1d::same(3);
        for bad in [f32::INFINITY, f32::NAN] {
            let label = format!("{level} {bad} in the last weight only");
            let x = tensor(&mut rng, &[224, 4, 8, 8], 0.1, false);
            let mut wt = tensor(&mut rng, &[4, 4, 3, 3], 0.1, false);
            *wt.data_mut().last_mut().unwrap() = bad;
            let bias = tensor(&mut rng, &[4], 0.5, false);
            let go = tensor(&mut rng, &[224, 4, 8, 8], 0.4, false);
            check_conv2d(&format!("b224 4->4 8x8 {label}"), &x, &wt, &bias, &go, (1, 1));
            let x = tensor(&mut rng, &[1024, 4, 14], 0.1, false);
            let mut wt = tensor(&mut rng, &[4, 4, 3], 0.1, false);
            *wt.data_mut().last_mut().unwrap() = bad;
            let go = tensor(&mut rng, &[1024, 4, 14], 0.4, false);
            check_conv1d(&format!("b1024 4->4 l14 {label}"), &x, &wt, &bias, &go, same, 1);
        }
        for c in [5, 6, 7] {
            for (cin, cout) in [(c, c), (2, c), (c, 2)] {
                let special = rng.gen_bool(0.5);
                let label = format!("{level} b40 {cin}->{cout} special={special}");
                let x = tensor(&mut rng, &[40, cin, 5, 6], 0.1, special);
                let wt = tensor(&mut rng, &[cout, cin, 3, 3], 0.1, special);
                let bias = tensor(&mut rng, &[cout], 0.5, false);
                let go = tensor(&mut rng, &[40, cout, 5, 6], 0.4, special);
                check_conv2d(&format!("{label} 5x6 k3x3"), &x, &wt, &bias, &go, (1, 1));
                let x = tensor(&mut rng, &[40, cin, 9], 0.1, special);
                let wt = tensor(&mut rng, &[cout, cin, 3], 0.1, special);
                let go = tensor(&mut rng, &[40, cout, 9], 0.4, special);
                check_conv1d(&format!("{label} l9 k3"), &x, &wt, &bias, &go, same, 1);
            }
        }
        for k in [3, 40] {
            for r in [1, 15, 16, 17, 48] {
                let (b, special) = (64 * k + r, rng.gen_bool(0.5));
                let x = tensor(&mut rng, &[b, 1, 14], 0.1, special);
                let wt = tensor(&mut rng, &[1, 1, 3], 0.1, special);
                let bias = tensor(&mut rng, &[1], 0.5, false);
                let go = tensor(&mut rng, &[b, 1, 14], 0.4, special);
                let label = format!("{level} b{b} 1->1 l14 k3 special={special}");
                check_conv1d(&label, &x, &wt, &bias, &go, same, 1);
            }
        }
    }

    /// The weight gradient's order (each batch element's plane summed on
    /// its own, the plane sums added in batch order), at each vector level
    /// and at 1 and 4 threads, over batches of 1, 15, 16, 17 and 33: the
    /// batch of one, a partial panel, a full one, one lane past it, and a
    /// four-panel tile's worth that leaves one lane over; then batches
    /// shorter than a panel under more out-channels (5→20, 5→17, 5→16 at
    /// batches of 1, 3 and 15 over an 8×8 plane), whose lanes are
    /// out-channels: a full panel of them, a partial one, a tile of four
    /// in-channels and a last one, and at 4 threads several bands. The 2-D
    /// kernel's taps read the padding on every side; the 1-D kernels are
    /// dilated by 2 under lopsided and causal padding. The last batch
    /// element's `x` holds NaN and ±∞ where its `grad_out` is all (signed)
    /// zeros: the oracle skips those terms, so the kernel must add `+0.0`
    /// there and every gradient stays finite.
    #[test]
    fn conv_weight_gradient_matches_oracle_bits_per_batch_count() {
        for threads in [1, 4] {
            sthsl_parallel::set_num_threads(threads);
            at_each_level(|level| weight_gradient_cases(&format!("{level} t{threads}")));
        }
        sthsl_parallel::set_num_threads(0);
    }

    /// `x` and `grad_out` of `[b, ..]` shapes, the last batch element's `x`
    /// cycling through NaN and ±∞ and its `grad_out` all signed zeros.
    fn poisoned_last(rng: &mut StdRng, x_shape: &[usize], go_shape: &[usize]) -> [Tensor; 2] {
        let (mut x, mut go) = (tensor(rng, x_shape, 0.1, false), tensor(rng, go_shape, 0.4, false));
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let (xn, gn) = (x.len(), go.len());
        for (i, v) in x.data_mut()[xn - xn / x_shape[0]..].iter_mut().enumerate() {
            *v = specials[i % 3];
        }
        for (i, v) in go.data_mut()[gn - gn / go_shape[0]..].iter_mut().enumerate() {
            *v = if i % 2 == 0 { 0.0 } else { -0.0 };
        }
        [x, go]
    }

    fn weight_gradient_cases(level: &str) {
        let mut rng = StdRng::seed_from_u64(0x9e16);
        let finite = |label: &str, t: &Tensor| {
            assert!(t.data().iter().all(|v| v.is_finite()), "{label}: {:?}", t.data());
        };
        for b in [1, 15, 16, 17, 33] {
            // 3→5 channels, a 4×3 kernel over a 5×6 plane padded by (2, 1).
            let [x, go] = poisoned_last(&mut rng, &[b, 3, 5, 6], &[b, 5, 6, 6]);
            let (shape, pad) = ([5, 3, 4, 3], (2, 1));
            let label = format!("{level} conv2d_grad_weight b{b} k4x3 pad{pad:?}");
            let gw = Tensor::conv2d_grad_weight(&go, &x, &shape, pad).unwrap();
            assert_bits(&label, &gw, &super::conv2d_grad_weight(&go, &x, &shape, pad));
            finite(&label, &gw);
            for pad in [Pad1d { left: 3, right: 1 }, Pad1d::causal(3, 2)] {
                let ol = 9 + pad.left + pad.right - 4;
                let [x, go] = poisoned_last(&mut rng, &[b, 2, 9], &[b, 4, ol]);
                let label = format!("{level} conv1d_grad_weight b{b} k3 d2 {pad:?}");
                let gw = Tensor::conv1d_grad_weight(&go, &x, &[4, 2, 3], pad, 2).unwrap();
                assert_bits(&label, &gw, &super::conv1d_grad_weight(&go, &x, &[4, 2, 3], pad, 2));
                finite(&label, &gw);
            }
        }
        for (b, cout) in [(1, 20), (3, 17), (15, 16)] {
            let [x, go] = poisoned_last(&mut rng, &[b, 5, 8, 8], &[b, cout, 9, 8]);
            let (shape, pad) = ([cout, 5, 4, 3], (2, 1));
            let label = format!("{level} conv2d_grad_weight b{b} 5->{cout} 8x8 k4x3 pad{pad:?}");
            let gw = Tensor::conv2d_grad_weight(&go, &x, &shape, pad).unwrap();
            assert_bits(&label, &gw, &super::conv2d_grad_weight(&go, &x, &shape, pad));
            finite(&label, &gw);
        }
    }

    /// A conv operand laid out in memory as a permutation of its logical
    /// axes `[Bo, Bi, C, H, W]`: `order` lists them outermost first.
    struct Layout {
        extents: [usize; 5],
        order: [usize; 5],
    }

    impl Layout {
        /// The view that reads the operand out of its buffer.
        fn view(&self) -> ConvView {
            let mut strides = [0; 5];
            let mut next = 1;
            for &axis in self.order.iter().rev() {
                strides[axis] = next;
                next *= self.extents[axis];
            }
            let axis = |a: usize| (self.extents[a], strides[a]);
            ConvView { batch: [axis(0), axis(1)], channels: axis(2), rows: axis(3), cols: axis(4) }
        }

        /// The buffer's own shape: the extents in memory order.
        fn shape(&self) -> Vec<usize> {
            self.order.iter().map(|&a| self.extents[a]).collect()
        }

        /// A contiguous `[B, C, H, W]` (or, for `rank` 3, `[B, C, W]`)
        /// copy of a buffer in this layout, made by `permute`.
        fn contiguous(&self, t: &Tensor, rank: usize) -> Tensor {
            let mut perm = [0; 5];
            for (at, &axis) in self.order.iter().enumerate() {
                perm[axis] = at;
            }
            let [bo, bi, c, h, w] = self.extents;
            let dims = if rank == 3 { vec![bo * bi, c, w] } else { vec![bo * bi, c, h, w] };
            t.permute(&perm).unwrap().reshape(&dims).unwrap()
        }
    }

    /// The model's three conv operands at quick width (8×8 grid, window
    /// 14, 4 categories, d = 16), as `(layout, kernel, rank)`: the local
    /// spatial conv over E's `[I, J, Tw, C, d]`, the local temporal conv
    /// over `[R, Tw, C, d]` and the global temporal conv over `[Tw, RC, d]`.
    const VIEW_ROWS: [([usize; 5], [usize; 5], usize, usize); 3] = [
        ([14, 16, 4, 8, 8], [3, 4, 0, 2, 1], 3, 4),
        ([64, 16, 4, 1, 14], [0, 3, 4, 2, 1], 3, 3),
        ([256, 16, 1, 1, 14], [2, 3, 4, 0, 1], 3, 3),
    ];

    /// Every conv kernel through a view (forward, input, weight and bias
    /// gradients) must give the bits
    /// the contiguous kernel gives on a permuted copy: at the model's three
    /// views and at random ones (slot counts other than 16, batches whose
    /// tail passes a 16-lane panel, dilation, causal and lopsided padding,
    /// every memory order, so every way a band can cut the destination), at
    /// each vector level and at 1 and 4 threads.
    #[test]
    fn conv_kernels_through_views_match_contiguous_bits() {
        for threads in [1, 4] {
            sthsl_parallel::set_num_threads(threads);
            at_each_level(|level| view_cases(&format!("{level} t{threads}")));
        }
        sthsl_parallel::set_num_threads(0);
    }

    fn view_cases(level: &str) {
        let mut rng = StdRng::seed_from_u64(0x71e3);
        for case in 0..VIEW_ROWS.len() + 160 {
            let (extents, order, k, rank) = match VIEW_ROWS.get(case) {
                Some(&row) => row,
                None => {
                    let rank = if rng.gen_bool(0.5) { 3 } else { 4 };
                    let extents = [
                        rng.gen_range(1..6usize),
                        rng.gen_range(1..21usize),
                        rng.gen_range(1..6usize),
                        if rank == 3 { 1 } else { rng.gen_range(1..7usize) },
                        rng.gen_range(1..9usize),
                    ];
                    let mut order = [0, 1, 2, 3, 4];
                    for i in (1..5).rev() {
                        order.swap(i, rng.gen_range(0..=i));
                    }
                    (extents, order, rng.gen_range(1..6usize), rank)
                }
            };
            let layout = Layout { extents, order };
            let view = layout.view();
            let c = extents[2];
            let special = rng.gen_bool(0.5);
            let x = tensor(&mut rng, &layout.shape(), 0.1, special);
            let go = tensor(&mut rng, &layout.shape(), 0.4, special);
            let bias = tensor(&mut rng, &[c], 0.5, false);
            let (xc, goc) = (layout.contiguous(&x, rank), layout.contiguous(&go, rank));
            let label = format!("{level} {extents:?} order {order:?} k{k} special={special}");
            let back = |t: &Tensor| layout.contiguous(t, rank);
            if rank == 4 {
                // Same padding needs odd kernel sides.
                let kw = if case < VIEW_ROWS.len() { k } else { 2 * rng.gen_range(0..3usize) + 1 };
                let kh = 2 * (k / 2) + 1;
                let wt = tensor(&mut rng, &[c, c, kh, kw], 0.1, special);
                let pad = (kh / 2, kw / 2);
                let y = x.conv2d_view(&wt, Some(&bias), pad, Some(view)).unwrap();
                let want = xc.conv2d(&wt, Some(&bias), pad).unwrap();
                assert_bits(&format!("conv2d {label}"), &back(&y), &want);
                let gx = Tensor::conv2d_view_grad_input(&go, &wt, x.shape(), pad, Some(view));
                let want = Tensor::conv2d_grad_input(&goc, &wt, xc.shape(), pad).unwrap();
                assert_bits(&format!("conv2d_grad_input {label}"), &back(&gx.unwrap()), &want);
                let gw = Tensor::conv2d_view_grad_weight(&go, &x, wt.shape(), pad, Some(view));
                let want = Tensor::conv2d_grad_weight(&goc, &xc, wt.shape(), pad).unwrap();
                assert_bits(&format!("conv2d_grad_weight {label}"), &gw.unwrap(), &want);
            } else {
                let dilation = rng.gen_range(1..4usize);
                let span = dilation * (k - 1);
                let left = match rng.gen_range(0..3usize) {
                    0 => span / 2,
                    1 => span,
                    _ => rng.gen_range(0..=span),
                };
                let pad = Pad1d { left, right: span - left };
                let wt = tensor(&mut rng, &[c, c, k], 0.1, special);
                let label = format!("{label} d{dilation} {pad:?}");
                let y = x.conv1d_view(&wt, Some(&bias), pad, dilation, Some(view)).unwrap();
                let want = xc.conv1d(&wt, Some(&bias), pad, dilation).unwrap();
                assert_bits(&format!("conv1d {label}"), &back(&y), &want);
                let gx =
                    Tensor::conv1d_view_grad_input(&go, &wt, x.shape(), pad, dilation, Some(view));
                let want = Tensor::conv1d_grad_input(&goc, &wt, xc.shape(), pad, dilation).unwrap();
                assert_bits(&format!("conv1d_grad_input {label}"), &back(&gx.unwrap()), &want);
                let gw =
                    Tensor::conv1d_view_grad_weight(&go, &x, wt.shape(), pad, dilation, Some(view));
                let want =
                    Tensor::conv1d_grad_weight(&goc, &xc, wt.shape(), pad, dilation).unwrap();
                assert_bits(&format!("conv1d_grad_weight {label}"), &gw.unwrap(), &want);
            }
            let gb = Tensor::conv_view_grad_bias(&go, view).unwrap();
            assert_bits(&format!("grad_bias {label}"), &gb, &super::conv_grad_bias(&goc));
        }
    }

    /// All permutations of `0..n` in lexicographic order.
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for first in 0..n {
            for rest in permutations(n - 1) {
                let mut p = vec![first];
                p.extend(rest.into_iter().map(|r| if r >= first { r + 1 } else { r }));
                out.push(p);
            }
        }
        out
    }

    #[test]
    fn permute_matches_oracle_bits_for_every_permutation() {
        let mut rng = StdRng::seed_from_u64(0x9e7);
        for rank in 1..=5 {
            for perm in permutations(rank) {
                // Two shapes per permutation; size-1 axes are common.
                for _ in 0..2 {
                    let shape: Vec<usize> = (0..rank).map(|_| rng.gen_range(1..5usize)).collect();
                    let x = tensor(&mut rng, &shape, 0.1, true);
                    let label = format!("permute {shape:?} by {perm:?}");
                    assert_bits(&label, &x.permute(&perm).unwrap(), &super::permute(&x, &perm));
                }
            }
        }
    }

    /// Rhs widths around the register tile: below, at and past one tile,
    /// several tiles, and the hypergraph hops' widths.
    const MATMUL_NS: [usize; 7] = [1, 15, 16, 17, 33, 64, 256];

    /// `[batch, m, k]` lhs with scattered exact zeros, some all-zero rows
    /// and some all-zero columns, and a `[batch, k, n]` rhs whose rows
    /// under an all-zero lhs column hold only NaN and ±∞: the skip must keep
    /// them out of every output (multiplying would give `0·∞ = NaN`).
    fn matmul_operands(rng: &mut StdRng, shape: [usize; 4], special: bool) -> (Tensor, Tensor) {
        let [batch, m, k, n] = shape;
        let zeros = rng.gen_range(0.0..0.5);
        let mut a = tensor(rng, &[batch, m, k], zeros, special);
        let mut b = tensor(rng, &[batch, k, n], 0.1, special);
        let zero_rows: Vec<bool> = (0..batch * m).map(|_| rng.gen_bool(0.15)).collect();
        let dead_cols: Vec<bool> = (0..k).map(|_| rng.gen_bool(0.2)).collect();
        for (row, &zero_row) in a.data_mut().chunks_exact_mut(k.max(1)).zip(&zero_rows) {
            for (v, &dead) in row.iter_mut().zip(&dead_cols) {
                if zero_row || dead {
                    *v = if rng.gen_bool(0.5) { 0.0 } else { -0.0 };
                }
            }
        }
        for (p, brow) in b.data_mut().chunks_exact_mut(n).enumerate() {
            if dead_cols[p % k] {
                for v in brow {
                    *v = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.gen_range(0..3usize)];
                }
            }
        }
        (a, b)
    }

    /// Every matmul entry point against the oracle, at each vector level and
    /// at 1 and 4 threads: fixed rows first, then random ones.
    #[test]
    fn matmul_family_matches_oracle_bits() {
        for threads in [1, 4] {
            sthsl_parallel::set_num_threads(threads);
            at_each_level(|level| matmul_cases(&format!("{level} t{threads}")));
        }
        sthsl_parallel::set_num_threads(0);
    }

    /// The six entry points on `a: [batch, m, k]` and `b: [batch, k, n]`
    /// against the oracle. The transposed entries read a `permute`d copy of
    /// the operand they take transposed; the 2-D entries take batch 0.
    fn check_matmul(label: &str, a: &Tensor, b: &Tensor) {
        let (m, k, n) = (a.shape()[1], a.shape()[2], b.shape()[2]);
        let want = super::batched_matmul(a, b);
        let swap = |t: &Tensor| super::permute(t, &[0, 2, 1]);
        let check = |entry: &str, got: Result<Tensor, crate::TensorError>, want: &Tensor| {
            assert_bits(&format!("{entry} {label}"), &got.unwrap(), want);
        };
        check("batched_matmul", a.batched_matmul(b), &want);
        check("batched_transpose_matmul", swap(a).batched_transpose_matmul(b), &want);
        check("batched_matmul_transpose", a.batched_matmul_transpose(&swap(b)), &want);
        let a2 = Tensor::from_vec(a.data()[..m * k].to_vec(), &[m, k]).unwrap();
        let b2 = Tensor::from_vec(b.data()[..k * n].to_vec(), &[k, n]).unwrap();
        let want2 = Tensor::from_vec(want.data()[..m * n].to_vec(), &[m, n]).unwrap();
        let t2 = |t: &Tensor| super::permute(t, &[1, 0]);
        check("matmul", a2.matmul(&b2), &want2);
        check("transpose_matmul", t2(&a2).transpose_matmul(&b2), &want2);
        check("matmul_transpose", a2.matmul_transpose(&t2(&b2)), &want2);
    }

    /// Fixed matmul rows `[batch, m, k, n]`, all finite: the hypergraph's
    /// three products at batch 2 (hop 1 `H·E`, hop 2 `Hᵀ·hubs`, which
    /// `check_matmul` also runs with the lhs stored transposed, and the
    /// gradient shape `G·Eᵀ`), and row counts 1–3 past a 4-row tile.
    const MATMUL_ROWS: [[usize; 4]; 9] = [
        [2, 64, 256, 16],
        [2, 256, 64, 16],
        [2, 64, 16, 256],
        [1, 1, 37, 19],
        [2, 3, 37, 19],
        [1, 5, 37, 19],
        [3, 6, 37, 19],
        [1, 7, 37, 19],
        [2, 11, 9, 40],
    ];

    fn matmul_cases(level: &str) {
        let mut rng = StdRng::seed_from_u64(0x3a7);
        for [batch, m, k, n] in MATMUL_ROWS {
            let a = tensor(&mut rng, &[batch, m, k], 0.1, false);
            let b = tensor(&mut rng, &[batch, k, n], 0.1, false);
            check_matmul(&format!("{level} fixed b{batch} m{m} k{k} n{n}"), &a, &b);
        }
        // A finite rhs under lhs ±0, half the elements and whole rows of
        // each sign: the branch-free tiles add `±0·b` where the oracle skips
        // it, and an all-`-0.0` row must still come out `+0.0`.
        let (batch, m, k, n) = (2, 7, 29, 21);
        let mut a = tensor(&mut rng, &[batch, m, k], 0.5, false);
        a.data_mut()[..k].fill(-0.0);
        a.data_mut()[k..2 * k].fill(0.0);
        let b = tensor(&mut rng, &[batch, k, n], 0.1, false);
        check_matmul(&format!("{level} signed zeros over a finite rhs"), &a, &b);
        // One non-finite rhs value, in the last batch slice only, under an
        // all-zero lhs column: that slice must run the skipping tiles, or
        // `0·∞` puts NaN in every output row of the slice.
        let (batch, m, k, n) = (3, 6, 23, 18);
        let mut a = tensor(&mut rng, &[batch, m, k], 0.1, false);
        let mut b = tensor(&mut rng, &[batch, k, n], 0.1, false);
        for row in a.data_mut()[(batch - 1) * m * k..].chunks_exact_mut(k) {
            row[5] = 0.0;
        }
        b.data_mut()[(batch - 1) * k * n + 5 * n + 17] = f32::INFINITY;
        check_matmul(&format!("{level} ∞ in the last slice only"), &a, &b);
        for case in 0..CASES {
            let n = MATMUL_NS[case % MATMUL_NS.len()];
            // k crosses the oracle's KC = 128 block boundary; m = 0 and
            // k = 0 are empty products.
            let k = if case % 25 == 3 { 0 } else { rng.gen_range(1..300usize) };
            let m = if case % 25 == 7 { 0 } else { rng.gen_range(1..12usize) };
            let batch = rng.gen_range(1..5usize);
            let special = rng.gen_bool(0.5);
            let (a, b) = matmul_operands(&mut rng, [batch, m, k, n], special);
            check_matmul(&format!("{level} b{batch} m{m} k{k} n{n} special={special}"), &a, &b);
        }
    }

    /// Like [`value`] with `special`, plus subnormals and the extremes.
    fn edge_value(rng: &mut StdRng) -> f32 {
        const EDGES: [f32; 10] = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::MIN_POSITIVE / 8.0,
            -f32::MIN_POSITIVE / 3.0,
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
        ];
        if rng.gen_bool(0.3) {
            return EDGES[rng.gen_range(0..EDGES.len())];
        }
        rng.gen_range(-2.0f32..2.0)
    }

    fn edge_tensor(rng: &mut StdRng, shape: &[usize]) -> Tensor {
        let n = shape.iter().product();
        Tensor::from_vec((0..n).map(|_| edge_value(rng)).collect(), shape).unwrap()
    }

    /// Extents for broadcast shapes: zero-length, unit, short rows, a
    /// 16-wide row like the model's embedding axis, and odd lengths.
    const EXTENTS: [usize; 8] = [0, 1, 1, 2, 3, 5, 16, 17];

    /// Two operand shapes that broadcast together: each keeps a suffix of
    /// one full shape's axes (a rank-prefix broadcast, down to a rank-0
    /// scalar) with some axes set to 1.
    fn broadcast_case(rng: &mut StdRng) -> [Vec<usize>; 2] {
        let rank = rng.gen_range(0..6usize);
        let zero_ok = rng.gen_bool(0.1);
        let out: Vec<usize> = (0..rank)
            .map(|_| loop {
                let e = EXTENTS[rng.gen_range(0..EXTENTS.len())];
                if e > 0 || zero_ok {
                    break e;
                }
            })
            .collect();
        let operand = |rng: &mut StdRng| -> Vec<usize> {
            let keep = rng.gen_range(0..=rank);
            out[rank - keep..].iter().map(|&e| if rng.gen_bool(0.35) { 1 } else { e }).collect()
        };
        [operand(rng), operand(rng)]
    }

    #[test]
    fn broadcast_arithmetic_and_reduce_to_shape_match_oracle_bits() {
        at_each_level(broadcast_cases);
    }

    fn broadcast_cases(level: &str) {
        let mut rng = StdRng::seed_from_u64(0xb0a);
        type Kernel = fn(&Tensor, &Tensor) -> crate::Result<Tensor>;
        type Scalar = fn(f32, f32) -> f32;
        let ops: [(&str, Kernel, Scalar); 4] = [
            ("add", Tensor::add, |a, b| a + b),
            ("sub", Tensor::sub, |a, b| a - b),
            ("mul", Tensor::mul, |a, b| a * b),
            ("div", Tensor::div, |a, b| a / b),
        ];
        // The model's three broadcast products, above the parallel cutoff.
        let fixed = [
            [vec![64, 14, 4, 1], vec![4, 16]],
            [vec![14, 64, 4, 16], vec![14, 1, 4, 16]],
            [vec![14, 1, 4, 16], vec![14, 64, 4, 16]],
        ];
        let random = (0..CASES).map(|_| broadcast_case(&mut rng)).collect::<Vec<_>>();
        for [ls, rs] in fixed.into_iter().chain(random) {
            let (a, b) = (edge_tensor(&mut rng, &ls), edge_tensor(&mut rng, &rs));
            for (name, op, f) in ops {
                let label = format!("{level} {name} {ls:?} x {rs:?}");
                assert_bits(&label, &op(&a, &b).unwrap(), &super::zip_map(&a, &b, f));
            }
            let out = broadcast_shapes(&ls, &rs).unwrap();
            // Mostly finite sums: one NaN or ∞ term would hide a reordering.
            let g = if rng.gen_bool(0.2) {
                edge_tensor(&mut rng, &out)
            } else {
                tensor(&mut rng, &out, 0.1, false)
            };
            for target in [&ls, &rs] {
                assert_bits(
                    &format!("reduce_to_shape {out:?} -> {target:?}"),
                    &g.reduce_to_shape(target).unwrap(),
                    &super::reduce_to_shape(&g, target),
                );
            }
        }
    }

    #[test]
    fn leaky_relu_and_grad_match_oracle_bits() {
        at_each_level(leaky_relu_cases);
    }

    fn leaky_relu_cases(level: &str) {
        let mut rng = StdRng::seed_from_u64(0x1e4);
        // Every edge value as input and as gradient, then random mixes
        // long enough to span several parallel bands.
        let edges: Vec<f32> = (0..4000).map(|_| edge_value(&mut rng)).collect();
        for n in [edges.len(), 70_000] {
            let x = if n == edges.len() {
                Tensor::from_vec(edges.clone(), &[n]).unwrap()
            } else {
                edge_tensor(&mut rng, &[n])
            };
            let g = edge_tensor(&mut rng, &[n]);
            for alpha in [0.0, 0.1] {
                let label = format!("{level} n{n} alpha={alpha}");
                assert_bits(
                    &format!("leaky_relu {label}"),
                    &x.leaky_relu(alpha),
                    &super::leaky_relu(&x, alpha),
                );
                assert_bits(
                    &format!("leaky_relu_grad {label}"),
                    &g.leaky_relu_grad(&x, alpha).unwrap(),
                    &super::leaky_relu_grad(&g, &x, alpha),
                );
            }
        }
    }

    #[test]
    fn axis_kernels_match_oracle_bits_with_unit_inner_extents() {
        let mut rng = StdRng::seed_from_u64(0xa15);
        // `[.., axis_len]` plus trailing size-1 axes keeps `inner == 1`;
        // the infomax score shape is `[14, 64, 4, 16]` reduced over axis 3.
        let mut shapes = vec![vec![14, 64, 4, 16], vec![2000, 17, 1]];
        for _ in 0..CASES {
            let rank = rng.gen_range(1..5usize);
            let mut s: Vec<usize> = (0..rank).map(|_| rng.gen_range(0..7usize)).collect();
            s.extend(std::iter::repeat_n(1, rng.gen_range(0..3usize)));
            shapes.push(s);
        }
        for shape in shapes {
            let x = if rng.gen_bool(0.2) {
                edge_tensor(&mut rng, &shape)
            } else {
                tensor(&mut rng, &shape, 0.1, false)
            };
            // Every axis: the unit-inner path and the general one.
            for axis in 0..shape.len() {
                let label = format!("{shape:?} axis {axis}");
                assert_bits(
                    &format!("sum_axis {label}"),
                    &x.sum_axis(axis).unwrap(),
                    &super::reduce_axis(&x, axis, false),
                );
                assert_bits(
                    &format!("mean_axis {label}"),
                    &x.mean_axis(axis).unwrap(),
                    &super::reduce_axis(&x, axis, true),
                );
                let r = x.sum_axis(axis).unwrap();
                assert_bits(
                    &format!("repeat_axis {label}"),
                    &r.repeat_axis(axis, shape[axis]).unwrap(),
                    &super::repeat_axis(&r, axis, shape[axis]),
                );
            }
        }
    }

    /// The dropout kernel must match its one-element-at-a-time reference at
    /// each vector level and at 1 and 4 threads: on an empty tensor, a
    /// 7-element one and the global temporal conv's output (`[14, 256, 16]`,
    /// four bands at 4 threads), with NaN, ±∞ and signed zeros among the
    /// values, over keys with one, both or neither half set.
    #[test]
    fn dropout_matches_oracle_bits_at_each_level_and_thread_count() {
        let mut rng = StdRng::seed_from_u64(0xd0);
        let shapes = [vec![0], vec![7], vec![14, 256, 16]];
        let xs: Vec<Tensor> = shapes.iter().map(|s| tensor(&mut rng, s, 0.1, true)).collect();
        let keys = [0u64, 1, 1 << 32, rng.gen(), rng.gen()];
        let per_key = |x| keys.map(|key| [0.5f32, 0.8, 0.9].map(move |keep| (x, key, keep)));
        let cases: Vec<(&Tensor, u64, f32)> = xs.iter().flat_map(per_key).flatten().collect();
        for threads in [1, 4] {
            sthsl_parallel::set_num_threads(threads);
            at_each_level(|level| {
                for &(x, key, keep) in &cases {
                    let label =
                        format!("dropout {level} t{threads} {:?} {key:#x} {keep}", x.shape());
                    assert_bits(&label, &x.dropout(key, keep), &super::dropout(x, key, keep));
                }
            });
        }
        sthsl_parallel::set_num_threads(0);
    }
}
