//! 1-D and 2-D convolution kernels (stride 1) with analytic backward passes.
//!
//! These are correlation-style convolutions as used by every deep-learning
//! framework. Backward kernels are exposed so the autograd crate can wire
//! them as node gradients without re-deriving index arithmetic.
//!
//! # Kernel contract
//!
//! Every output element receives the same f32 operations, in the same order,
//! as the direct loops kept in `ops/oracle.rs`, so results are bit-identical
//! to them (the oracle test compares `to_bits()`):
//!
//! - **Forward:** bias, then `x·w` for each tap in `(ci, ky, kx)` order.
//! - **Input gradient:** `g·w` in `co → oy → ox` order, which for a fixed
//!   input element is `co` ascending, then `ky`, `kx` *descending*.
//! - **Weight gradient:** `g·x` in `(bi, oy, ox)` order.
//! - **Bias gradient:** per batch element, its plane summed in `(oy, ox)`
//!   order from `-0.0` (as `Iterator::sum` sums it), added in batch order.
//!
//! **Forward and input gradient: batch elements are the vector lanes.** The
//! model's rows are short (8 or 14 floats) but its conv batches are long
//! (224 to 4096 elements), and every batch element uses the same taps. So
//! both passes pack the source blocks of `P` = 16 batch elements into a
//! lane-major panel and accumulate each destination element in 16 lanes at
//! once, register-resident, then write each lane back to its own batch
//! element. One driver (`panel_pass`) serves both, because the input
//! gradient is the forward pass of the flipped kernel; each pass brings its
//! own tap table (`Taps`). The forward table walks `(ci, ky, kx)`
//! ascending from the bias; the input-gradient table walks `co` ascending,
//! then `ky`, `kx` descending, from `+0.0`. Taps that fall into the zero
//! padding are left out of the table, so they are skipped for all 16 lanes
//! at once, as the oracle's `continue` skips them.
//!
//! **Tiles.** One destination per panel-row load would be one dependent add
//! chain, which waits on the add latency. So each tap's panel row and
//! weight serve a tile of four destinations, four 16-lane accumulators
//! whose add chains overlap:
//! - **C→C, at least 4 destination channels** (the model's 4→4 spatial and
//!   temporal layers): four destination channels of one pixel share each
//!   panel row, each with its own weight; the channels past the last block
//!   of four run one at a time.
//! - **Fewer than 4 destination channels** (the 1→1 global temporal stack,
//!   batch 4096): four consecutive panels, 64 batch elements, share each
//!   tap's weight; the last 0–3 panels run one at a time.
//!
//! Every destination still folds its own taps in table order, from its own
//! start, so a tile changes which destinations run side by side, never a
//! destination's operations or their order.
//!
//! **Weight gradient: out-channel lanes.** Its `(bi, oy, ox)` order runs
//! serially over the batch, so batch lanes would reorder its sums; the
//! out-channels are the lanes instead. Each band takes its out-channels in
//! blocks of 8 lanes and, per lane block, its `cin·kh·kw` taps kernel column
//! by kernel column in blocks of 8 (`tap_block`). A block of `C` lanes by
//! `T` taps keeps its `C·T` sums in registers for the whole `(bi, oy, ox)`
//! walk, reads `x` directly at each tap's offset and stores once; a last,
//! shorter block is padded with copies of its first lane or tap, whose sums
//! are dropped. A tap that reads the padding is skipped
//! through its two `Span`s, as the oracle's `continue` skips it: a row
//! outside its row span by a test made once per row, and a column outside
//! its column span by never being visited, since taps of one kernel column
//! share that span. Only a block that straddles two kernel columns tests
//! each tap at the columns where their spans differ. No table, gather or
//! patch buffer is built.
//!
//! Every kernel body runs under `wide!`, which picks its AVX2 copy where
//! the CPU has one. The operations and their order are the same at every
//! level, and so are the bits.
//!
//! **Zero gradients.** The oracle's input gradient skips a zero `grad_out`
//! element. Over finite weights a tile adds its term anyway: `±0·w` is `±0`
//! for a finite `w`, an input-gradient sum starts at `+0.0` and, with no
//! flush to zero, is `-0.0` only when both addends are, so it is never
//! `-0.0`; and `x + (±0)` returns every other `x` bit for bit. So adding the
//! term equals skipping it, and the tiles need no test. `grad_input` scans
//! the weights once per call, branch-free, as the matmul kernel scans its
//! rhs slice; only weights holding a NaN or ±∞ run the lane select, where
//! `0·∞` would be NaN. That select adds `-0.0` instead of the term: under
//! round-to-nearest `x + (-0.0)` returns `x` bit for bit for every `x`
//! except a signalling NaN, which arithmetic never produces. The weight
//! gradient adds `+0.0`, which one `and` selects: its sums start at `+0.0`
//! and so, as above, are never `-0.0`, and `x + (+0.0)` returns every other
//! `x` bit for bit.
//!
//! A 1-D convolution is the 2-D one over a single row whose column taps are
//! dilated, so both share `Geom` and one kernel per pass. Its geometry is
//! computed in checked arithmetic: an extent that overflows `usize` is a
//! [`TensorError::Invalid`].
//!
//! **Views.** Every pass reads its operands, and forward and the input
//! gradient write their results, through a [`ConvView`]: the batch as up to
//! two `(extent, stride)` axes, plus channel and spatial strides. The
//! contiguous `[B, C, H, W]` layout is the default view. A caller's view
//! serves a same-padded C→C conv, whose output has the input's shape and is
//! written through the same view, so a model can convolve a tensor in the
//! layout the layer before left it, with no permuted copy. The panels pack
//! and unpack through the view; the weight gradient copies chunks of batch
//! elements out of it, lane-interleaved as the panels hold them, and walks
//! their rows 16 floats apart. The values each element sees and their order
//! do not depend on the view, and neither do the bits.

use std::ops::Range;

use super::matmul::all_finite;
use crate::simd::wide;
use crate::{Result, Tensor, TensorError};

/// Minimum multiply-accumulate count a band must carry before it is worth a
/// thread (shared by every conv kernel below).
const MIN_WORK_PER_BAND: usize = 1 << 15;

/// Batch elements per panel: the vector lanes of `forward` and `grad_input`.
/// One panel row is one cache line.
const P: usize = 16;

/// Floats of one chunk of `x` and `grad_out` that the weight gradient
/// copies out of a caller's view (32 KB, about an L1 data cache).
const CHUNK: usize = 1 << 13;

/// Where the elements of a conv operand `[B, C, H, W]` sit in its buffer.
/// Each axis is an `(extent, stride)` pair. The batch is two axes, outer
/// then inner: batch element `b` starts at
/// `(b / inner extent)·outer stride + (b % inner extent)·inner stride`. A
/// 1-D conv's sequence is `cols`, under `rows` of extent 1.
///
/// A view must be dense: its axes, ordered by stride, tile the buffer
/// exactly, so it is a permutation of a contiguous layout and every element
/// has one place ([`ConvView::check`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvView {
    pub batch: [(usize, usize); 2],
    pub channels: (usize, usize),
    pub rows: (usize, usize),
    pub cols: (usize, usize),
}

impl ConvView {
    /// The contiguous `[B, C, H, W]` layout.
    pub(crate) fn nchw([b, c, h, w]: [usize; 4]) -> ConvView {
        let plane = h * w;
        ConvView {
            batch: [(b, c * plane), (1, 1)],
            channels: (c, plane),
            rows: (h, w),
            cols: (w, 1),
        }
    }

    /// Batch elements the view holds.
    fn batch_len(&self) -> usize {
        self.batch[0].0 * self.batch[1].0
    }

    /// `[B, C, H, W]` as the view reads them.
    pub fn dims(&self) -> [usize; 4] {
        [self.batch_len(), self.channels.0, self.rows.0, self.cols.0]
    }

    /// `Ok` when the view tiles a buffer of `len` elements exactly: ordered
    /// by stride, each axis of extent above 1 has the stride of all smaller
    /// axes together, and all of them cover `len`.
    pub fn check(&self, len: usize) -> std::result::Result<(), String> {
        let axes = [self.batch[0], self.batch[1], self.channels, self.rows, self.cols];
        if axes.iter().any(|&(n, _)| n == 0) {
            return if len == 0 {
                Ok(())
            } else {
                Err(format!("view {self:?} is empty but its buffer holds {len} elements"))
            };
        }
        let mut axes: Vec<(usize, usize)> = axes.into_iter().filter(|&(n, _)| n > 1).collect();
        axes.sort_by_key(|&(_, stride)| stride);
        let mut next = 1usize;
        for (n, stride) in axes {
            if stride != next {
                return Err(format!(
                    "view {self:?} is not dense: stride {stride} where {next} is due"
                ));
            }
            next = next.checked_mul(n).ok_or_else(|| format!("view {self:?} overflows usize"))?;
        }
        if next != len {
            return Err(format!("view {self:?} covers {next} elements, its buffer holds {len}"));
        }
        Ok(())
    }

    /// Where each element of one batch element sits from its start, in
    /// `(channel, row, column)` order.
    fn cells(&self) -> Vec<usize> {
        let [(c, cs), (h, rs), (w, xs)] = [self.channels, self.rows, self.cols];
        let mut cells = Vec::with_capacity(c * h * w);
        for ci in 0..c {
            for y in 0..h {
                cells.extend((0..w).map(|x| ci * cs + y * rs + x * xs));
            }
        }
        cells
    }

    /// Where each of the `lanes` batch elements from `b0` on starts: one
    /// division for the first, then a step along the inner batch axis.
    #[inline(always)]
    fn bases(&self, b0: usize, lanes: usize) -> [usize; P] {
        let [(_, outer), (n, inner)] = self.batch;
        let (mut q, mut r) = (b0 / n, b0 % n);
        std::array::from_fn(|l| {
            if l >= lanes {
                return 0;
            }
            let at = q * outer + r * inner;
            r += 1;
            if r == n {
                (q, r) = (q + 1, 0);
            }
            at
        })
    }
}

/// Padding specification for 1-D convolutions; 2-D uses symmetric padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pad1d {
    pub left: usize,
    pub right: usize,
}

impl Pad1d {
    /// Symmetric "same" padding for an undilated odd kernel.
    pub fn same(kernel: usize) -> Self {
        Pad1d { left: kernel / 2, right: kernel / 2 }
    }

    /// Causal padding: only the past is visible (used by dilated TCNs).
    pub fn causal(kernel: usize, dilation: usize) -> Self {
        Pad1d { left: dilation * (kernel - 1), right: 0 }
    }
}

impl Tensor {
    /// 2-D convolution. `self: [B, Cin, H, W]`, `weight: [Cout, Cin, kh, kw]`,
    /// optional `bias: [Cout]`, symmetric zero padding `(ph, pw)`.
    /// Output: `[B, Cout, H + 2ph - kh + 1, W + 2pw - kw + 1]`.
    pub fn conv2d(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        pad: (usize, usize),
    ) -> Result<Tensor> {
        self.conv2d_view(weight, bias, pad, None)
    }

    /// [`Tensor::conv2d`] of the operand `view` reads out of `self`, or of
    /// `self` itself as `[B, Cin, H, W]` for `None`. Through a view the conv
    /// must be same-padded C→C; its output is written through the same
    /// view and has `self`'s shape.
    pub fn conv2d_view(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        pad: (usize, usize),
        view: Option<ConvView>,
    ) -> Result<Tensor> {
        let geom = Geom::conv2d("conv2d", self.shape(), weight.shape(), pad, view)?;
        let bias = check_bias("conv2d bias", bias, geom.cout)?;
        let out = forward(self.data(), weight.data(), bias, geom)?;
        Tensor::from_vec(out, &geom.out_shape(self.shape(), 4))
    }

    /// Gradient of `conv2d` w.r.t. its input (a transposed convolution with
    /// the kernel flipped).
    pub fn conv2d_grad_input(
        grad_out: &Tensor,
        weight: &Tensor,
        input_shape: &[usize],
        pad: (usize, usize),
    ) -> Result<Tensor> {
        Tensor::conv2d_view_grad_input(grad_out, weight, input_shape, pad, None)
    }

    /// Gradient of [`Tensor::conv2d_view`] w.r.t. its input.
    pub fn conv2d_view_grad_input(
        grad_out: &Tensor,
        weight: &Tensor,
        input_shape: &[usize],
        pad: (usize, usize),
        view: Option<ConvView>,
    ) -> Result<Tensor> {
        const OP: &str = "conv2d_grad_input";
        let geom = Geom::conv2d(OP, input_shape, weight.shape(), pad, view)?;
        check_grad_out(OP, grad_out, &geom.out_shape(input_shape, 4))?;
        Tensor::from_vec(grad_input(grad_out.data(), weight.data(), geom)?, input_shape)
    }

    /// Gradient of `conv2d` w.r.t. its weight.
    pub fn conv2d_grad_weight(
        grad_out: &Tensor,
        input: &Tensor,
        weight_shape: &[usize],
        pad: (usize, usize),
    ) -> Result<Tensor> {
        Tensor::conv2d_view_grad_weight(grad_out, input, weight_shape, pad, None)
    }

    /// Gradient of [`Tensor::conv2d_view`] w.r.t. its weight.
    pub fn conv2d_view_grad_weight(
        grad_out: &Tensor,
        input: &Tensor,
        weight_shape: &[usize],
        pad: (usize, usize),
        view: Option<ConvView>,
    ) -> Result<Tensor> {
        const OP: &str = "conv2d_grad_weight";
        let geom = Geom::conv2d(OP, input.shape(), weight_shape, pad, view)?;
        check_grad_out(OP, grad_out, &geom.out_shape(input.shape(), 4))?;
        Tensor::from_vec(grad_weight(grad_out.data(), input.data(), geom)?, weight_shape)
    }

    /// Gradient of a conv bias: sum of `grad_out` over batch and spatial axes.
    pub fn conv2d_grad_bias(grad_out: &Tensor) -> Result<Tensor> {
        let dims = dims(grad_out.shape(), "conv2d grad_out")?;
        grad_bias(grad_out.data(), ConvView::nchw(dims))
    }

    /// 1-D convolution with dilation. `self: [B, Cin, L]`,
    /// `weight: [Cout, Cin, k]`, optional `bias: [Cout]`.
    /// Output length: `L + left + right − dilation·(k−1)`.
    pub fn conv1d(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        pad: Pad1d,
        dilation: usize,
    ) -> Result<Tensor> {
        self.conv1d_view(weight, bias, pad, dilation, None)
    }

    /// [`Tensor::conv1d`] of the operand `view` reads out of `self` (its
    /// `rows` of extent 1), as [`Tensor::conv2d_view`].
    pub fn conv1d_view(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        pad: Pad1d,
        dilation: usize,
        view: Option<ConvView>,
    ) -> Result<Tensor> {
        let geom = Geom::conv1d("conv1d", self.shape(), weight.shape(), pad, dilation, view)?;
        let bias = check_bias("conv1d bias", bias, geom.cout)?;
        let out = forward(self.data(), weight.data(), bias, geom)?;
        Tensor::from_vec(out, &geom.out_shape(self.shape(), 3))
    }

    /// Gradient of `conv1d` w.r.t. its input.
    pub fn conv1d_grad_input(
        grad_out: &Tensor,
        weight: &Tensor,
        input_shape: &[usize],
        pad: Pad1d,
        dilation: usize,
    ) -> Result<Tensor> {
        Tensor::conv1d_view_grad_input(grad_out, weight, input_shape, pad, dilation, None)
    }

    /// Gradient of [`Tensor::conv1d_view`] w.r.t. its input.
    pub fn conv1d_view_grad_input(
        grad_out: &Tensor,
        weight: &Tensor,
        input_shape: &[usize],
        pad: Pad1d,
        dilation: usize,
        view: Option<ConvView>,
    ) -> Result<Tensor> {
        const OP: &str = "conv1d_grad_input";
        let geom = Geom::conv1d(OP, input_shape, weight.shape(), pad, dilation, view)?;
        check_grad_out(OP, grad_out, &geom.out_shape(input_shape, 3))?;
        Tensor::from_vec(grad_input(grad_out.data(), weight.data(), geom)?, input_shape)
    }

    /// Gradient of `conv1d` w.r.t. its weight.
    pub fn conv1d_grad_weight(
        grad_out: &Tensor,
        input: &Tensor,
        weight_shape: &[usize],
        pad: Pad1d,
        dilation: usize,
    ) -> Result<Tensor> {
        Tensor::conv1d_view_grad_weight(grad_out, input, weight_shape, pad, dilation, None)
    }

    /// Gradient of [`Tensor::conv1d_view`] w.r.t. its weight.
    pub fn conv1d_view_grad_weight(
        grad_out: &Tensor,
        input: &Tensor,
        weight_shape: &[usize],
        pad: Pad1d,
        dilation: usize,
        view: Option<ConvView>,
    ) -> Result<Tensor> {
        const OP: &str = "conv1d_grad_weight";
        let geom = Geom::conv1d(OP, input.shape(), weight_shape, pad, dilation, view)?;
        check_grad_out(OP, grad_out, &geom.out_shape(input.shape(), 3))?;
        Tensor::from_vec(grad_weight(grad_out.data(), input.data(), geom)?, weight_shape)
    }

    /// Gradient of a 1-D conv bias: sum over batch and length axes.
    pub fn conv1d_grad_bias(grad_out: &Tensor) -> Result<Tensor> {
        let [b, cout, ol] = dims(grad_out.shape(), "conv1d grad_out")?;
        grad_bias(grad_out.data(), ConvView::nchw([b, cout, 1, ol]))
    }

    /// Gradient of the bias of a conv through `view`: per channel, the sum
    /// of `grad_out` over batch and plane, in the contiguous layout's order.
    pub fn conv_view_grad_bias(grad_out: &Tensor, view: ConvView) -> Result<Tensor> {
        view.check(grad_out.len())
            .map_err(|e| TensorError::Invalid(format!("conv grad_bias: {e}")))?;
        grad_bias(grad_out.data(), view)
    }
}

/// Validated geometry of a stride-1 convolution. A 1-D conv is a 2-D conv
/// over one row (`h = kh = oh = 1`, `ph = 0`) with dilated column taps.
#[derive(Debug, Clone, Copy)]
struct Geom {
    b: usize,
    cin: usize,
    cout: usize,
    /// Input plane.
    h: usize,
    w: usize,
    /// Kernel.
    kh: usize,
    kw: usize,
    /// Output plane.
    oh: usize,
    ow: usize,
    /// Leading (top, left) zero padding; trailing padding only sets `oh`/`ow`.
    ph: usize,
    pw: usize,
    /// Spacing of the column taps.
    dilation: usize,
    /// The caller's view of input and output, or `None` for the
    /// contiguous layouts.
    view: Option<ConvView>,
}

impl Geom {
    /// `input: [B, Cin, H, W]`, or what `view` reads out of it;
    /// `weight: [Cout, Cin, kh, kw]`.
    fn conv2d(
        op: &'static str,
        input: &[usize],
        weight: &[usize],
        (ph, pw): (usize, usize),
        view: Option<ConvView>,
    ) -> Result<Geom> {
        let [b, cin, h, w] = match view {
            None => dims(input, "conv2d input")?,
            Some(v) => viewed(op, input, v)?,
        };
        let [cout, cin_w, kh, kw] = dims(weight, "conv2d weight")?;
        check_channels(op, input, weight, cin, cin_w)?;
        let oh = out_len(op, padded(op, h, ph, ph)?, kh, 1)?;
        let ow = out_len(op, padded(op, w, pw, pw)?, kw, 1)?;
        Geom { b, cin, cout, h, w, kh, kw, oh, ow, ph, pw, dilation: 1, view }.checked(op)
    }

    /// `input: [B, Cin, L]`, or what `view` reads out of it (one row);
    /// `weight: [Cout, Cin, k]`.
    fn conv1d(
        op: &'static str,
        input: &[usize],
        weight: &[usize],
        pad: Pad1d,
        dilation: usize,
        view: Option<ConvView>,
    ) -> Result<Geom> {
        let [b, cin, l] = match view {
            None => dims(input, "conv1d input")?,
            Some(v) => match viewed(op, input, v)? {
                [b, cin, 1, l] => [b, cin, l],
                _ => {
                    return Err(TensorError::Invalid(format!(
                        "{op}: a 1-D view has one row, got {v:?}"
                    )))
                }
            },
        };
        let [cout, cin_w, k] = dims(weight, "conv1d weight")?;
        check_channels(op, input, weight, cin, cin_w)?;
        if dilation == 0 {
            return Err(TensorError::Invalid(format!("{op}: dilation must be >= 1")));
        }
        let ol = out_len(op, padded(op, l, pad.left, pad.right)?, k, dilation)?;
        Geom {
            b,
            cin,
            cout,
            h: 1,
            w: l,
            kh: 1,
            kw: k,
            oh: 1,
            ow: ol,
            ph: 0,
            pw: pad.left,
            dilation,
            view,
        }
        .checked(op)
    }

    /// `self`, once every tensor it describes has an element count that
    /// fits `usize`, and an output written through the input's view has
    /// the input's geometry.
    fn checked(self, op: &'static str) -> Result<Geom> {
        if self.view.is_some() && (self.cout, self.oh, self.ow) != (self.cin, self.h, self.w) {
            return Err(TensorError::Invalid(format!(
                "{op}: a conv through a view writes its output through the same view, so it \
                 must map {0} channels of {1}x{2} to {0} of {1}x{2}, not to {3} of {4}x{5}",
                self.cin, self.h, self.w, self.cout, self.oh, self.ow
            )));
        }
        let numel = |dims: &[usize]| dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
        let sizes = [
            numel(&[self.b, self.cin, self.h, self.w]),
            numel(&[self.b, self.cout, self.oh, self.ow]),
            numel(&[self.cout, self.cin, self.kh, self.kw]),
        ];
        if sizes.iter().any(Option::is_none) {
            return Err(TensorError::Invalid(format!("{op}: tensor size overflows usize")));
        }
        Ok(self)
    }

    /// The output's shape: the input's own through a view, else
    /// `[B, Cout, OH, OW]` (`rank` 4) or `[B, Cout, OL]` (`rank` 3).
    fn out_shape(&self, input: &[usize], rank: usize) -> Vec<usize> {
        match self.view {
            Some(_) => input.to_vec(),
            None if rank == 3 => vec![self.b, self.cout, self.ow],
            None => vec![self.b, self.cout, self.oh, self.ow],
        }
    }

    /// The views of the input and of the output.
    fn views(&self) -> (ConvView, ConvView) {
        self.view.map_or_else(
            || {
                let x = ConvView::nchw([self.b, self.cin, self.h, self.w]);
                (x, ConvView::nchw([self.b, self.cout, self.oh, self.ow]))
            },
            |v| (v, v),
        )
    }

    fn in_plane(&self) -> usize {
        self.h * self.w
    }

    fn out_plane(&self) -> usize {
        self.oh * self.ow
    }

    /// Kernel taps per (out-channel, in-channel) pair.
    fn taps(&self) -> usize {
        self.kh * self.kw
    }

    /// The weight gradient's taps, kernel column by kernel column (`kx`,
    /// then `ci`, `ky`): consecutive taps mostly share their column span.
    fn weight_taps(&self) -> Vec<WeightTap> {
        let mut taps = Vec::with_capacity(self.cin * self.taps());
        for kx in 0..self.kw {
            let rx = Span::new(kx * self.dilation, self.pw, self.w, self.ow);
            for ci in 0..self.cin {
                for ky in 0..self.kh {
                    let ry = Span::new(ky, self.ph, self.h, self.oh);
                    let (j, src) = ((ci * self.kh + ky) * self.kw + kx, ci * self.in_plane());
                    taps.push(WeightTap { j, ry, rx, src: src + ry.src * self.w + rx.src });
                }
            }
        }
        taps
    }
}

/// The output positions `lo..hi` at which one tap reads inside the input,
/// and the input position `src` that output `lo` reads. Output `o` reads
/// input `o + offset − pad`; every other tap position is zero padding and is
/// clipped away here rather than multiplied.
#[derive(Debug, Clone, Copy)]
struct Span {
    lo: usize,
    hi: usize,
    src: usize,
}

impl Span {
    fn new(offset: usize, pad: usize, in_len: usize, out_len: usize) -> Span {
        let hi = (in_len + pad).saturating_sub(offset).min(out_len);
        let lo = pad.saturating_sub(offset);
        if lo >= hi {
            // Empty at offset 0: no output reads inside the input.
            return Span { lo: 0, hi: 0, src: 0 };
        }
        Span { lo, hi, src: lo + offset - pad }
    }

    fn len(&self) -> usize {
        self.hi - self.lo
    }

    fn contains(&self, o: usize) -> bool {
        (self.lo..self.hi).contains(&o)
    }
}

/// The tap of weight `j` (`= (ci·kh + ky)·kw + kx`): the output rows `ry`
/// and columns `rx` at which it reads inside the input, and the offset in a
/// batch element's `[Cin, H, W]` block that output `(ry.lo, rx.lo)` reads.
#[derive(Debug, Clone, Copy)]
struct WeightTap {
    j: usize,
    ry: Span,
    rx: Span,
    src: usize,
}

/// `out[p] = bias + Σ x·w` over `(ci, ky, kx)`, 16 batch elements at a time.
fn forward(x: &[f32], wt: &[f32], bias: Option<&[f32]>, g: Geom) -> Result<Vec<f32>> {
    let init: Vec<f32> = (0..g.cout).map(|co| bias.map_or(0.0, |bd| bd[co])).collect();
    panel_pass::<false>(x, wt, g, false, &init)
}

/// `gx[i] += g·w` in the oracle's `co → oy → ox` order, 16 batch elements at
/// a time: the forward pass of the flipped kernel. The oracle skips a zero
/// `g`; over finite weights every term is added instead, which gives the
/// same bits (`±0·w` is `±0`, and a sum that starts at `+0.0` is never
/// `-0.0`), and only weights holding a NaN or ±∞ run the lane select.
fn grad_input(go: &[f32], wt: &[f32], g: Geom) -> Result<Vec<f32>> {
    let init = vec![0.0; g.cin];
    if all_finite(wt) {
        panel_pass::<false>(go, wt, g, true, &init)
    } else {
        panel_pass::<true>(go, wt, g, true, &init)
    }
}

/// The tap table of one pass: for each destination pixel, the `(source
/// row, weight offset)` of every tap that reads inside the source, in
/// accumulation order. A source row is `channel·plane + pixel`; a weight
/// offset counts from the destination channel's first weight. Taps that fall
/// into the zero padding are left out, so no lane ever adds their term.
struct Taps {
    /// `taps[ends[p]..ends[p + 1]]` belong to destination pixel `p`.
    ends: Vec<usize>,
    taps: Vec<(u32, u32)>,
}

impl Taps {
    /// Forward (`flip = false`): destination `(co, oy, ox)` reads input
    /// `(ci, oy + ky − ph, ox + kx·d − pw)` for `(ci, ky, kx)` ascending.
    /// Input gradient (`flip = true`): destination `(ci, iy, ix)` reads
    /// `grad_out` `(co, iy + ph − ky, ix + pw − kx·d)` for `co` ascending,
    /// then `ky`, `kx` descending, which is the oracle's `co → oy → ox`.
    fn new(g: &Geom, flip: bool) -> Result<Taps> {
        let (dh, dw, sch, sh, sw) =
            if flip { (g.h, g.w, g.cout, g.oh, g.ow) } else { (g.oh, g.ow, g.cin, g.h, g.w) };
        let wstride = if flip { g.cin * g.taps() } else { g.taps() };
        let order = move |n: usize| (0..n).map(move |k| if flip { n - 1 - k } else { k });
        // Source position of destination position `dp` under tap offset `off`.
        let source = move |dp: usize, pad: usize, off: usize, len: usize| {
            let sp = if flip { (dp + pad).checked_sub(off) } else { (dp + off).checked_sub(pad) };
            sp.filter(|&p| p < len)
        };
        let mut ends = vec![0];
        let mut taps = Vec::new();
        for dy in 0..dh {
            for dx in 0..dw {
                for sc in 0..sch {
                    for ky in order(g.kh) {
                        let Some(sy) = source(dy, g.ph, ky, sh) else { continue };
                        for kx in order(g.kw) {
                            let Some(sx) = source(dx, g.pw, kx * g.dilation, sw) else {
                                continue;
                            };
                            let woff = sc * wstride + ky * g.kw + kx;
                            taps.push((tap_index((sc * sh + sy) * sw + sx)?, tap_index(woff)?));
                        }
                    }
                }
                ends.push(taps.len());
            }
        }
        Ok(Taps { ends, taps })
    }
}

/// `v` as a tap-table entry; one that does not fit `u32` is a typed error.
fn tap_index(v: usize) -> Result<u32> {
    u32::try_from(v)
        .map_err(|_| TensorError::Invalid(format!("conv: index {v} does not fit a tap table")))
}

/// Index of a tap-table entry (lossless: `u32` fits `usize` on every target
/// this crate builds for).
#[inline(always)]
fn at(i: u32) -> usize {
    usize::try_from(i).unwrap_or(usize::MAX)
}

/// Destination channels one channel tile folds at once: each panel row it
/// loads serves that many.
const CHANNELS: usize = 4;

/// Panels one batch tile packs: a band with fewer than [`CHANNELS`]
/// destination channels takes its batch elements `QUAD`·[`P`] at a time,
/// so that each tap's weight serves four panels.
const QUAD: usize = 4;

/// The panel driver shared by `forward` (`flip = false`: `src` is the input)
/// and `grad_input` (`flip = true`: `src` is `grad_out`). Batch elements are
/// the vector lanes: each panel packs the source blocks of up to [`P`] of
/// them lane-major, then every destination element starts from
/// `init[channel]` and folds in its taps with [`term`] in table order, all
/// lanes at once. A tile folds several destinations side by side, so that
/// one panel row load feeds several add chains: a band with at least
/// [`CHANNELS`] destination channels folds them four at a time per panel (and
/// the channels past the last block of four one at a time); a band with
/// fewer folds [`QUAD`] consecutive panels per channel (and the last 0–3
/// panels one at a time). Each destination keeps its own taps in their
/// order, so its bits do not depend on the tile. Lanes past the batch's end
/// compute on stale data and are never written back. Source and destination
/// are read and written through their views; where a panel's lanes are 16
/// adjacent floats (the model's layouts put the embedding slots there), a
/// panel row is one copy.
fn panel_pass<const SKIP: bool>(
    src: &[f32],
    wt: &[f32],
    g: Geom,
    flip: bool,
    init: &[f32],
) -> Result<Vec<f32>> {
    let table = Taps::new(&g, flip)?;
    let (xview, yview) = g.views();
    let (sview, dview, dch) = if flip { (yview, xview, g.cin) } else { (xview, yview, g.cout) };
    // Where each panel row (source channel, row, column) and each
    // destination element (channel, pixel) sits in its batch element.
    let (rows, cells) = (sview.cells(), dview.cells());
    let dplane = dview.rows.0 * dview.cols.0;
    // Weights of one destination channel start `wdst` apart.
    let wdst = if flip { g.taps() } else { g.cin * g.taps() };
    let mut out = vec![0.0f32; g.b * cells.len()];
    if out.is_empty() {
        return Ok(out);
    }
    // Each destination element lives in exactly one band, so the result is
    // bit-identical at every thread count.
    let split = Split::new(&dview, out.len());
    let per_unit = (g.b * dch * table.taps.len() / split.units).max(1);
    let min_units = match split.axis {
        Axis::Batch(inner) => (MIN_WORK_PER_BAND / per_unit).max(P.div_ceil(inner)),
        _ => (MIN_WORK_PER_BAND / per_unit).max(1),
    };
    let (units, stride) = (split.units, split.stride);
    let pass = Pass { table: &table, wt, wdst, init };
    sthsl_parallel::parallel_rows_mut(
        &mut out,
        units,
        stride,
        min_units,
        move |band_units, band| {
            wide!(band, |band| {
                let start = band_units.start * stride;
                let (batch, chans, pixels) = split.work(band_units.clone(), g.b, dch, dplane);
                let quad = chans.len() < CHANNELS;
                let mut panel = vec![[0.0f32; P]; rows.len() * if quad { QUAD } else { 1 }];
                let mut b0 = batch.start;
                while b0 < batch.end {
                    let q = if quad && batch.end - b0 > (QUAD - 1) * P { QUAD } else { 1 };
                    let lanes: [usize; QUAD] =
                        std::array::from_fn(|i| P.min(batch.end.saturating_sub(b0 + i * P)));
                    let dst = Dst::new(&dview, b0, &lanes[..q], start);
                    for (i, &n) in lanes[..q].iter().enumerate() {
                        let at = sview.bases(b0 + i * P, n);
                        pack(panel.iter_mut().skip(i).step_by(q), src, &at, n, &rows);
                    }
                    let panel = &panel[..rows.len() * q];
                    if q == QUAD {
                        for dc in chans.clone() {
                            for p in pixels.clone() {
                                let acc = pass.tile::<1, QUAD, SKIP>(panel, dc, p);
                                dst.store(band, &acc, &cells, dc * dplane + p, dplane);
                            }
                        }
                    } else {
                        let mut dc = chans.start;
                        while dc + CHANNELS <= chans.end {
                            for p in pixels.clone() {
                                let acc = pass.tile::<CHANNELS, 1, SKIP>(panel, dc, p);
                                dst.store(band, &acc, &cells, dc * dplane + p, dplane);
                            }
                            dc += CHANNELS;
                        }
                        for dc in dc..chans.end {
                            for p in pixels.clone() {
                                let acc = pass.tile::<1, 1, SKIP>(panel, dc, p);
                                dst.store(band, &acc, &cells, dc * dplane + p, dplane);
                            }
                        }
                    }
                    b0 += q * P;
                }
            });
        },
    );
    Ok(out)
}

/// What every tile of one pass reads: the tap table, the weights (those of
/// destination channel `c` from `c·wdst` on) and each destination channel's
/// starting value.
#[derive(Clone, Copy)]
struct Pass<'a> {
    table: &'a Taps,
    wt: &'a [f32],
    wdst: usize,
    init: &'a [f32],
}

impl Pass<'_> {
    /// Destination pixel `p` of the `C` channels from `dc` on, in each of
    /// the `Q` panels of `panel` (row `s` of panel `q` at `s·Q + q`): each
    /// of the `C·Q` destinations starts from its channel's `init` and folds
    /// in the pixel's taps in table order, and each panel row and weight is
    /// loaded once for all of them.
    #[inline(always)]
    fn tile<const C: usize, const Q: usize, const SKIP: bool>(
        &self,
        panel: &[[f32; P]],
        dc: usize,
        p: usize,
    ) -> [[[f32; P]; Q]; C] {
        let mut acc: [[[f32; P]; Q]; C] = std::array::from_fn(|c| [[self.init[dc + c]; P]; Q]);
        let w: [&[f32]; C] = std::array::from_fn(|c| &self.wt[(dc + c) * self.wdst..]);
        let taps = &self.table.taps[self.table.ends[p]..self.table.ends[p + 1]];
        for &(s, o) in taps {
            let rows: [&[f32; P]; Q] = std::array::from_fn(|q| &panel[at(s) * Q + q]);
            let wv: [f32; C] = std::array::from_fn(|c| w[c][at(o)]);
            for (sums, wv) in acc.iter_mut().zip(wv) {
                for (a, row) in sums.iter_mut().zip(rows) {
                    term::<SKIP>(a, row, wv);
                }
            }
        }
        acc
    }
}

/// `acc[l] += row[l]·w` for every lane. With `SKIP`, a zero `row` value
/// adds `-0.0` instead: the oracle's skip, as a lane select (module docs).
#[inline(always)]
fn term<const SKIP: bool>(acc: &mut [f32; P], row: &[f32; P], wv: f32) {
    for (a, &v) in acc.iter_mut().zip(row) {
        *a += if SKIP && v == 0.0 { -0.0 } else { v * wv };
    }
}

/// Where the batch elements of up to [`QUAD`] consecutive panels from `b0`
/// on sit in a band that starts at `start`.
struct Dst {
    base: [[usize; P]; QUAD],
    lanes: [usize; QUAD],
    dense: [bool; QUAD],
    start: usize,
}

impl Dst {
    fn new(view: &ConvView, b0: usize, lanes: &[usize], start: usize) -> Dst {
        let mut dst = Dst { base: [[0; P]; QUAD], lanes: [0; QUAD], dense: [false; QUAD], start };
        for (q, &n) in lanes.iter().enumerate() {
            dst.base[q] = view.bases(b0 + q * P, n);
            dst.lanes[q] = n;
            dst.dense[q] = adjacent(&dst.base[q], n);
        }
        dst
    }

    /// Write a tile's sums: those of channel `c`, panel `q` to destination
    /// element `cells[d + c·dplane]` of the panel's batch elements.
    #[inline(always)]
    fn store<const C: usize, const Q: usize>(
        &self,
        band: &mut [f32],
        acc: &[[[f32; P]; Q]; C],
        cells: &[usize],
        d: usize,
        dplane: usize,
    ) {
        for (c, sums) in acc.iter().enumerate() {
            let cell = cells[d + c * dplane];
            for (q, a) in sums.iter().enumerate() {
                let base = &self.base[q];
                if self.dense[q] {
                    band[base[0] + cell - self.start..][..P].copy_from_slice(a);
                } else {
                    for (&v, &b) in a[..self.lanes[q]].iter().zip(base) {
                        band[b + cell - self.start] = v;
                    }
                }
            }
        }
    }
}

/// Whether the `lanes` batch elements starting at `base` are a full panel
/// of adjacent floats.
#[inline(always)]
fn adjacent(base: &[usize; P], lanes: usize) -> bool {
    lanes == P && base.iter().enumerate().all(|(l, &b)| b == base[0] + l)
}

/// Pack the source rows `rows` of the batch elements starting at `base`
/// into the panel rows `panel`, lane-major.
#[inline(always)]
fn pack<'a>(
    panel: impl Iterator<Item = &'a mut [f32; P]>,
    src: &[f32],
    base: &[usize; P],
    lanes: usize,
    rows: &[usize],
) {
    if adjacent(base, lanes) {
        for (row, &r) in panel.zip(rows) {
            row.copy_from_slice(&src[base[0] + r..][..P]);
        }
    } else {
        for (row, &r) in panel.zip(rows) {
            for (v, &b) in row.iter_mut().zip(&base[..lanes]) {
                *v = src[b + r];
            }
        }
    }
}

/// Which destination elements one unit of a band holds.
#[derive(Debug, Clone, Copy)]
enum Axis {
    /// The batch elements `unit·n .. (unit + 1)·n`.
    Batch(usize),
    /// Destination channel `unit`.
    Channels,
    /// The destination pixels `unit·n .. (unit + 1)·n`.
    Pixels(usize),
    /// Everything: one unit, one band.
    Whole,
}

/// How `panel_pass` cuts its destination into bands: along the axis of the
/// destination's view with the largest stride, whose `units` slabs of
/// `stride` floats each tile the buffer, so that each band owns one
/// contiguous run of it. A view whose outermost axis does not cut the work
/// into ranges (an inner batch axis under an outer one, or columns under
/// several rows) runs as one band.
#[derive(Debug, Clone, Copy)]
struct Split {
    axis: Axis,
    units: usize,
    stride: usize,
}

impl Split {
    fn new(v: &ConvView, len: usize) -> Split {
        let [outer, inner] = v.batch;
        let axes = [
            (outer, Axis::Batch(inner.0)),
            (inner, if outer.0 == 1 { Axis::Batch(1) } else { Axis::Whole }),
            (v.channels, Axis::Channels),
            (v.rows, Axis::Pixels(v.cols.0)),
            (v.cols, if v.rows.0 == 1 { Axis::Pixels(1) } else { Axis::Whole }),
        ];
        match axes.into_iter().filter(|&((n, _), _)| n > 1).max_by_key(|&((_, s), _)| s) {
            Some(((units, stride), axis)) if !matches!(axis, Axis::Whole) => {
                Split { axis, units, stride }
            }
            _ => Split { axis: Axis::Whole, units: 1, stride: len },
        }
    }

    /// The batch elements, destination channels and destination pixels of
    /// the units `units`.
    fn work(
        &self,
        units: Range<usize>,
        b: usize,
        channels: usize,
        plane: usize,
    ) -> (Range<usize>, Range<usize>, Range<usize>) {
        let per = |n: usize| units.start * n..units.end * n;
        match self.axis {
            Axis::Batch(n) => (per(n), 0..channels, 0..plane),
            Axis::Channels => (0..b, units, 0..plane),
            Axis::Pixels(n) => (0..b, 0..channels, per(n)),
            Axis::Whole => (0..b, 0..channels, 0..plane),
        }
    }
}

/// `gw[co, j] += g·x` over `(bi, oy, ox)`, out-channels as the vector
/// lanes: each band's out-channels go in blocks of 8 lanes and, per lane
/// block, the taps in blocks of 8, whose sums [`tap_block`] keeps in
/// registers. A last, shorter block runs at the narrowest width that holds
/// it (8, 4 or 2 lanes; 8, 4, 3, 2 or 1 taps), padded with copies of its
/// first lane or tap whose sums are never stored. There is no one-lane
/// block: it would compile to scalar code, in which the compiler turns the
/// zero-gradient select into a branch that mispredicts on dropout's zeros.
/// A 3-tap block fits the commonest kernel, 1→1 with width 3, unpadded.
///
/// Contiguous operands are read in place, the whole batch as one chunk.
/// Operands in a caller's view are copied out [`CHUNK`] floats at a time,
/// lane-interleaved ([`interleave`]), so that where the view puts a panel's
/// batch elements side by side each row is one copy, not a transpose; the
/// walk then reads a row's elements `P` floats apart. Each block of sums is
/// loaded from `rows` at the start of a chunk and stored at its end, which
/// moves the sums unchanged, so every weight still sums in `(bi, oy, ox)`
/// order.
fn grad_weight(go: &[f32], x: &[f32], g: Geom) -> Result<Vec<f32>> {
    let taps = g.weight_taps();
    let kvol = taps.len();
    let mut gw = vec![0.0f32; g.cout * kvol];
    if kvol == 0 {
        return Ok(gw);
    }
    let (xview, yview) = g.views();
    let (xcells, ycells) = (xview.cells(), yview.cells());
    // Whole panels, so that a chunk's batch elements sit side by side as
    // the view's do.
    let chunk = (CHUNK / (xcells.len() + ycells.len()).max(1) / P).max(1) * P;
    // Each out-channel's weight-gradient block is disjoint, so a band's
    // blocks, and the lanes within them, sum independently.
    let min_rows = (MIN_WORK_PER_BAND / (g.b * g.out_plane() * kvol).max(1)).max(1);
    sthsl_parallel::parallel_rows_mut(&mut gw, g.cout, kvol, min_rows, move |couts, band| {
        wide!(band, |band| {
            if g.view.is_none() {
                lane_blocks::<1>(go, x, g.b, &g, &taps, couts, band);
                return;
            }
            let (mut xs, mut gs) = (Vec::new(), Vec::new());
            for b0 in (0..g.b).step_by(chunk) {
                let batch = b0..g.b.min(b0 + chunk);
                interleave(&mut xs, x, &xview, &xcells, batch.clone());
                interleave(&mut gs, go, &yview, &ycells, batch.clone());
                lane_blocks::<P>(&gs, &xs, batch.len(), &g, &taps, couts.clone(), band);
            }
        });
    });
    Ok(gw)
}

/// The elements `cells` of the batch elements `batch` in `view`, into `dst`
/// lane-interleaved as the panels hold them: each run of [`P`] batch
/// elements is a block of `n = cells.len()` rows of `P` lanes, so element
/// `k` of batch element `bi` (counted from `batch.start`) sits at
/// `((bi / P)·n + k)·P + bi % P`. Where the view puts a panel's batch
/// elements side by side, each row is one copy.
fn interleave(
    dst: &mut Vec<f32>,
    src: &[f32],
    view: &ConvView,
    cells: &[usize],
    batch: Range<usize>,
) {
    let n = cells.len();
    dst.resize(batch.len().div_ceil(P) * n * P, 0.0);
    for (block, b0) in dst.chunks_exact_mut(n * P).zip(batch.clone().step_by(P)) {
        let lanes = P.min(batch.end - b0);
        let base = view.bases(b0, lanes);
        if adjacent(&base, lanes) {
            for (row, &cell) in block.chunks_exact_mut(P).zip(cells) {
                row.copy_from_slice(&src[base[0] + cell..][..P]);
            }
        } else {
            for (row, &cell) in block.chunks_exact_mut(P).zip(cells) {
                for (v, &at) in row.iter_mut().zip(&base[..lanes]) {
                    *v = src[at + cell];
                }
            }
        }
    }
}

/// The weight gradients of the out-channels `couts` into `band`, over the
/// `n` batch elements of `go` and `x`, whose consecutive elements along a
/// row lie `S` floats apart: 1 in place, [`P`] lane-interleaved.
#[inline(always)]
fn lane_blocks<const S: usize>(
    go: &[f32],
    x: &[f32],
    n: usize,
    g: &Geom,
    taps: &[WeightTap],
    couts: Range<usize>,
    band: &mut [f32],
) {
    let kvol = taps.len();
    for (rows, co) in band.chunks_mut(8 * kvol).zip(couts.step_by(8)) {
        match (rows.len() / kvol).next_power_of_two() {
            8 => lane_block::<8, S>(go, x, n, g, taps, co, rows),
            4 => lane_block::<4, S>(go, x, n, g, taps, co, rows),
            _ => lane_block::<2, S>(go, x, n, g, taps, co, rows),
        }
    }
}

/// The weight gradients of the out-channels from `co` on into `rows`
/// (`[lanes, cin·kh·kw]`, at most `C` lanes), in tap blocks of at most 8,
/// over the `n` batch elements of `go` and `x`.
#[inline(always)]
fn lane_block<const C: usize, const S: usize>(
    go: &[f32],
    x: &[f32],
    n: usize,
    g: &Geom,
    taps: &[WeightTap],
    co: usize,
    rows: &mut [f32],
) {
    let real = rows.len() / taps.len();
    let lanes: [usize; C] = std::array::from_fn(|c| co + if c < real { c } else { 0 });
    for block in taps.chunks(8) {
        match block.len() {
            5.. => tap_block::<C, 8, S>(go, x, n, g, &lanes, block, rows),
            4 => tap_block::<C, 4, S>(go, x, n, g, &lanes, block, rows),
            3 => tap_block::<C, 3, S>(go, x, n, g, &lanes, block, rows),
            2 => tap_block::<C, 2, S>(go, x, n, g, &lanes, block, rows),
            _ => tap_block::<C, 1, S>(go, x, n, g, &lanes, block, rows),
        }
    }
}

/// The gradients of the out-channels `lanes` by the taps of `block`. The
/// `C·T` accumulators stay in registers for the whole `(bi, oy, ox)` walk,
/// each tap reading `x` directly where the pixel reads it, and are stored
/// once. A tap is skipped where it reads the padding, as the oracle's
/// `continue` skips it, by its [`Span`]s: a row outside `ry` by a test made
/// once per row, a column outside `rx` by never visiting it. Only where the
/// block's taps come from two kernel columns do the columns outside the
/// span they all share test each tap at each pixel.
#[inline(always)]
fn tap_block<const C: usize, const T: usize, const S: usize>(
    go: &[f32],
    x: &[f32],
    n: usize,
    g: &Geom,
    lanes: &[usize; C],
    block: &[WeightTap],
    rows: &mut [f32],
) {
    let real = block.len();
    let block: [WeightTap; T] = std::array::from_fn(|t| block[if t < real { t } else { 0 }]);
    // The columns that every tap reads inside the input, and those that
    // any tap does.
    let spans = block.iter().map(|tap| tap.rx).filter(|rx| rx.len() > 0);
    let inner = spans.clone().fold(0..g.ow, |r, rx| r.start.max(rx.lo)..r.end.min(rx.hi));
    let all = spans.fold(g.ow..0, |r, rx| r.start.min(rx.lo)..r.end.max(rx.hi));
    let inner = if inner.is_empty() || all.is_empty() { all.end..all.end } else { inner };
    let lines: Vec<Line<T>> = (0..g.oh).map(|oy| Line::new(&block, oy, g.w)).collect();
    let (plane, xblock, kvol) = (g.out_plane(), g.cin * g.in_plane(), g.cin * g.taps());
    let stored = rows.len() / kvol;
    // The sums so far (`+0.0` before the first chunk); padded lanes and
    // taps start from `+0.0` and are never stored.
    let mut acc: [[f32; C]; T] = std::array::from_fn(|t| {
        std::array::from_fn(
            |c| if t < real && c < stored { rows[c * kvol + block[t].j] } else { 0.0 },
        )
    });
    for bi in 0..n {
        // Batch element `bi`'s first element; its others lie `S` apart.
        let first = |block: usize| bi / S * block * S + bi % S;
        let xb = &x[first(xblock)..][..run(xblock, S)];
        let gb = first(g.cout * plane);
        for (oy, line) in lines.iter().enumerate() {
            if !line.inside.iter().any(|&v| v) {
                continue;
            }
            let grow: [&[f32]; C] = std::array::from_fn(|c| {
                &go[gb + (lanes[c] * plane + oy * g.ow) * S..][..run(g.ow, S)]
            });
            line.border::<C, S>(&mut acc, &block, &grow, xb, all.start..inner.start);
            line.inner::<C, S>(&mut acc, &block, &grow, xb, inner.clone());
            line.border::<C, S>(&mut acc, &block, &grow, xb, inner.end..all.end);
        }
    }
    for (lane, wrow) in rows.chunks_exact_mut(kvol).enumerate() {
        for (tap, sums) in block[..real].iter().zip(&acc) {
            wrow[tap.j] = sums[lane];
        }
    }
}

/// Output row `oy` as the taps of one block read it, the same for every
/// batch element.
struct Line<const T: usize> {
    /// Whether each tap reads inside the input on this row.
    inside: [bool; T],
    /// Where each inside tap reads at column `rx.lo`, in a `[Cin, H, W]`
    /// block; column `ox` reads `ox − rx.lo` further on.
    start: [usize; T],
}

impl<const T: usize> Line<T> {
    fn new(block: &[WeightTap; T], oy: usize, w: usize) -> Self {
        let inside: [bool; T] =
            std::array::from_fn(|t| block[t].ry.contains(oy) && block[t].rx.len() > 0);
        let start = std::array::from_fn(|t| {
            let tap = &block[t];
            if inside[t] {
                tap.src + (oy - tap.ry.lo) * w
            } else {
                0
            }
        });
        Line { inside, start }
    }

    /// The columns `cols`, inside every tap's column span: each operand is
    /// sliced to the run once, and a tap outside the row is skipped by a
    /// test that every column of the row repeats alike.
    #[inline(always)]
    fn inner<const C: usize, const S: usize>(
        &self,
        acc: &mut [[f32; C]; T],
        block: &[WeightTap; T],
        grow: &[&[f32]; C],
        x: &[f32],
        cols: Range<usize>,
    ) {
        let n = cols.len();
        if n == 0 {
            return;
        }
        let gs: [&[f32]; C] = std::array::from_fn(|c| &grow[c][cols.start * S..][..run(n, S)]);
        let xs: [&[f32]; T] = std::array::from_fn(|t| {
            let at = self.start[t] + cols.start;
            if self.inside[t] {
                &x[(at - block[t].rx.lo) * S..][..run(n, S)]
            } else {
                &[]
            }
        });
        if self.inside.iter().all(|&v| v) {
            walk::<C, T, S, false>(acc, &gs, &xs, &self.inside);
        } else {
            walk::<C, T, S, true>(acc, &gs, &xs, &self.inside);
        }
    }

    /// The columns `cols` one by one, where some tap reads the padding: each
    /// tap is added only where its row and column spans both hold.
    #[inline(always)]
    fn border<const C: usize, const S: usize>(
        &self,
        acc: &mut [[f32; C]; T],
        block: &[WeightTap; T],
        grow: &[&[f32]; C],
        x: &[f32],
        cols: Range<usize>,
    ) {
        for ox in cols {
            let gv: [f32; C] = std::array::from_fn(|c| grow[c][ox * S]);
            for (t, (sums, tap)) in acc.iter_mut().zip(block).enumerate() {
                if self.inside[t] && tap.rx.contains(ox) {
                    add_lanes(sums, &gv, x[(self.start[t] + ox - tap.rx.lo) * S]);
                }
            }
        }
    }
}

/// One run of columns: `acc[t][c] += gs[c][i·S]·xs[t][i·S]` for `i`
/// ascending. With `CHECK`, a tap that is not `inside` the row is skipped.
#[inline(always)]
fn walk<const C: usize, const T: usize, const S: usize, const CHECK: bool>(
    acc: &mut [[f32; C]; T],
    gs: &[&[f32]; C],
    xs: &[&[f32]; T],
    inside: &[bool; T],
) {
    // Every run read has this length; folding it over them lets the
    // compiler see that no read below leaves its run.
    let runs = xs.iter().zip(inside).filter(|(_, &on)| on).map(|(xr, _)| xr);
    let n = gs.iter().chain(runs).fold(usize::MAX, |n, run| n.min(run.len())).div_ceil(S);
    for i in 0..n {
        let gv: [f32; C] = std::array::from_fn(|c| gs[c][i * S]);
        for ((sums, xr), &on) in acc.iter_mut().zip(xs).zip(inside) {
            if !CHECK || on {
                add_lanes(sums, &gv, xr[i * S]);
            }
        }
    }
}

/// The span of `n` elements `S` apart: from the first to the last.
#[inline(always)]
fn run(n: usize, s: usize) -> usize {
    n.saturating_sub(1) * s + usize::from(n > 0)
}

/// `sums[c] += g[c]·x`, where a zero gradient adds `+0.0`: the oracle's
/// skip, as a lane select that compiles to one `and` (a `-0.0` select is a
/// blend, three µops on recent x86 cores). Every sum starts at `+0.0` and an
/// IEEE sum is `-0.0` only when both addends are, so no sum is ever `-0.0`,
/// and `s + (+0.0)` returns every other `s` bit for bit.
#[inline(always)]
fn add_lanes<const C: usize>(sums: &mut [f32; C], gv: &[f32; C], xv: f32) {
    for (a, &gc) in sums.iter_mut().zip(gv) {
        *a += if gc == 0.0 { 0.0 } else { gc * xv };
    }
}

/// Bias gradient: per out-channel sum of `grad_out` over batch and plane,
/// read through its view: each batch element's plane is summed in `(oy, ox)`
/// order from `-0.0`, as `Iterator::sum::<f32>` sums it, and the plane sums
/// go into the channel's total in batch order. Where a panel's [`P`] batch
/// elements are adjacent floats (an inner batch axis of stride 1, as in all
/// the model's views), they are the lanes: each lane sums its own plane, and
/// the 16 sums then join the total one by one, in batch order.
fn grad_bias(go: &[f32], view: ConvView) -> Result<Tensor> {
    let cout = view.channels.0;
    let cells = view.cells();
    let mut gb = vec![0.0f32; cout];
    if cells.is_empty() {
        return Tensor::from_vec(gb, &[cout]);
    }
    let plane = cells.len() / cout;
    let b = view.batch_len();
    wide!(&mut gb, |gb| {
        for b0 in (0..b).step_by(P) {
            let lanes = P.min(b - b0);
            let base = view.bases(b0, lanes);
            if adjacent(&base, lanes) {
                for (total, cells) in gb.iter_mut().zip(cells.chunks_exact(plane)) {
                    let mut sums = [-0.0f32; P];
                    for &c in cells {
                        for (s, &v) in sums.iter_mut().zip(&go[base[0] + c..][..P]) {
                            *s += v;
                        }
                    }
                    for s in sums {
                        *total += s;
                    }
                }
            } else {
                for &at in &base[..lanes] {
                    for (total, cells) in gb.iter_mut().zip(cells.chunks_exact(plane)) {
                        *total += cells.iter().fold(-0.0, |sum, &c| sum + go[at + c]);
                    }
                }
            }
        }
    });
    Tensor::from_vec(gb, &[cout])
}

/// `[B, C, H, W]` of the operand `view` reads out of a tensor of shape
/// `input`, once the view tiles that tensor.
fn viewed(op: &'static str, input: &[usize], view: ConvView) -> Result<[usize; 4]> {
    let len = input.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
    let len = len.ok_or_else(|| TensorError::Invalid(format!("{op}: input size overflows")))?;
    view.check(len).map_err(|e| TensorError::Invalid(format!("{op}: {e}")))?;
    Ok(view.dims())
}

/// `len + lo + hi`, the extent of a padded axis.
fn padded(op: &'static str, len: usize, lo: usize, hi: usize) -> Result<usize> {
    len.checked_add(lo).and_then(|n| n.checked_add(hi)).ok_or_else(|| {
        TensorError::Invalid(format!("{op}: padded extent {len} + {lo} + {hi} overflows usize"))
    })
}

/// Output length of a stride-1 conv, `padded − dilation·(k−1)`. An empty
/// kernel, a span that overflows and one that exceeds the padded input are
/// errors.
fn out_len(op: &'static str, padded: usize, k: usize, dilation: usize) -> Result<usize> {
    let span = k
        .checked_sub(1)
        .ok_or_else(|| TensorError::Invalid(format!("{op}: kernel extent must be >= 1")))?;
    let span = span.checked_mul(dilation).ok_or_else(|| {
        TensorError::Invalid(format!(
            "{op}: dilated kernel span {dilation}·({k}−1) overflows usize"
        ))
    })?;
    padded.checked_sub(span).ok_or_else(|| {
        TensorError::Invalid(format!("{op}: kernel span {span} exceeds padded extent {padded}"))
    })
}

fn check_channels(
    op: &'static str,
    input: &[usize],
    weight: &[usize],
    cin: usize,
    cin_w: usize,
) -> Result<()> {
    if cin == cin_w {
        return Ok(());
    }
    Err(TensorError::ShapeMismatch { op, lhs: input.to_vec(), rhs: weight.to_vec() })
}

fn check_bias<'a>(
    op: &'static str,
    bias: Option<&'a Tensor>,
    cout: usize,
) -> Result<Option<&'a [f32]>> {
    match bias {
        Some(bs) if bs.shape() != [cout] => {
            Err(TensorError::ShapeMismatch { op, lhs: bs.shape().to_vec(), rhs: vec![cout] })
        }
        _ => Ok(bias.map(Tensor::data)),
    }
}

/// `grad_out` must have exactly the forward output's shape.
fn check_grad_out(op: &'static str, grad_out: &Tensor, expected: &[usize]) -> Result<()> {
    if grad_out.ndim() != expected.len() {
        return Err(TensorError::RankMismatch {
            op,
            expected: expected.len(),
            got: grad_out.ndim(),
            shape: grad_out.shape().to_vec(),
        });
    }
    if grad_out.shape() != expected {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: grad_out.shape().to_vec(),
            rhs: expected.to_vec(),
        });
    }
    Ok(())
}

fn dims<const N: usize>(shape: &[usize], op: &'static str) -> Result<[usize; N]> {
    shape.try_into().map_err(|_| TensorError::RankMismatch {
        op,
        expected: N,
        got: shape.len(),
        shape: shape.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::oracle;

    /// Naive reference conv2d used only for cross-checking the kernel.
    fn conv2d_ref(x: &Tensor, w: &Tensor, pad: (usize, usize)) -> Tensor {
        let [b, cin, h, wd] = [x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]];
        let [cout, _, kh, kw] = [w.shape()[0], w.shape()[1], w.shape()[2], w.shape()[3]];
        let oh = h + 2 * pad.0 - kh + 1;
        let ow = wd + 2 * pad.1 - kw + 1;
        let mut out = Tensor::zeros(&[b, cout, oh, ow]);
        for bi in 0..b {
            for co in 0..cout {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for ci in 0..cin {
                            for ky in 0..kh {
                                for kx in 0..kw {
                                    let iy = oy as isize + ky as isize - pad.0 as isize;
                                    let ix = ox as isize + kx as isize - pad.1 as isize;
                                    if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < wd
                                    {
                                        acc += x.at(&[bi, ci, iy as usize, ix as usize])
                                            * w.at(&[co, ci, ky, kx]);
                                    }
                                }
                            }
                        }
                        *out.at_mut(&[bi, co, oy, ox]) = acc;
                    }
                }
            }
        }
        out
    }

    /// The kernel and the bitwise oracle it is held to both agree with the
    /// definition of correlation.
    #[test]
    fn conv2d_matches_reference() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let x = Tensor::rand_normal(&[2, 3, 5, 4], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal(&[2, 3, 3, 3], 0.0, 1.0, &mut rng);
        let want = conv2d_ref(&x, &w, (1, 1));
        for got in [x.conv2d(&w, None, (1, 1)).unwrap(), oracle::conv2d(&x, &w, None, (1, 1))] {
            assert_eq!(got.shape(), want.shape());
            for (g, wv) in got.data().iter().zip(want.data()) {
                assert!((g - wv).abs() < 1e-4, "{g} vs {wv}");
            }
        }
    }

    #[test]
    fn conv2d_same_padding_preserves_spatial_dims() {
        let x = Tensor::ones(&[1, 1, 6, 7]);
        let w = Tensor::ones(&[1, 1, 3, 3]);
        let y = x.conv2d(&w, None, (1, 1)).unwrap();
        assert_eq!(y.shape(), &[1, 1, 6, 7]);
        // Interior cells see the full 3×3 window of ones.
        assert_eq!(y.at(&[0, 0, 3, 3]), 9.0);
        // A corner sees only a 2×2 window.
        assert_eq!(y.at(&[0, 0, 0, 0]), 4.0);
    }

    #[test]
    fn conv2d_bias_added_per_channel() {
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let w = Tensor::ones(&[2, 1, 1, 1]);
        let b = Tensor::from_vec(vec![1.0, -2.0], &[2]).unwrap();
        let y = x.conv2d(&w, Some(&b), (0, 0)).unwrap();
        assert_eq!(y.at(&[0, 0, 0, 0]), 1.0);
        assert_eq!(y.at(&[0, 1, 1, 1]), -2.0);
    }

    #[test]
    fn conv1d_identity_kernel() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4.], &[1, 1, 4]).unwrap();
        let w = Tensor::from_vec(vec![1.0], &[1, 1, 1]).unwrap();
        let y = x.conv1d(&w, None, Pad1d { left: 0, right: 0 }, 1).unwrap();
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv1d_same_padding_moving_sum() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4.], &[1, 1, 4]).unwrap();
        let w = Tensor::ones(&[1, 1, 3]);
        let y = x.conv1d(&w, None, Pad1d::same(3), 1).unwrap();
        assert_eq!(y.data(), &[3., 6., 9., 7.]);
    }

    #[test]
    fn conv1d_causal_never_sees_future() {
        // Impulse at position 2; causal conv output must be zero before 2.
        let x = Tensor::from_vec(vec![0., 0., 1., 0., 0., 0.], &[1, 1, 6]).unwrap();
        let w = Tensor::ones(&[1, 1, 2]);
        let y = x.conv1d(&w, None, Pad1d::causal(2, 2), 2).unwrap();
        assert_eq!(y.shape(), &[1, 1, 6]);
        assert_eq!(y.data()[0], 0.0);
        assert_eq!(y.data()[1], 0.0);
        assert_eq!(y.data()[2], 1.0);
        assert_eq!(y.data()[4], 1.0); // dilated tap two steps later
    }

    #[test]
    fn conv2d_grads_match_finite_difference() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        let x = Tensor::rand_normal(&[1, 2, 4, 4], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal(&[2, 2, 3, 3], 0.0, 0.5, &mut rng);
        let pad = (1, 1);
        // Loss = sum(conv(x, w)); grad_out = ones.
        let y = x.conv2d(&w, None, pad).unwrap();
        let go = Tensor::ones(y.shape());
        let gx = Tensor::conv2d_grad_input(&go, &w, x.shape(), pad).unwrap();
        let gw = Tensor::conv2d_grad_weight(&go, &x, w.shape(), pad).unwrap();
        let eps = 1e-2f32;
        // Spot-check a handful of coordinates by central differences.
        for &i in &[0usize, 7, 13, 31] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fp: f32 = xp.conv2d(&w, None, pad).unwrap().data().iter().sum();
            let fm: f32 = xm.conv2d(&w, None, pad).unwrap().data().iter().sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - gx.data()[i]).abs() < 1e-2, "input grad {i}: {fd} vs {}", gx.data()[i]);
        }
        for &i in &[0usize, 5, 17, 35] {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let fp: f32 = x.conv2d(&wp, None, pad).unwrap().data().iter().sum();
            let fm: f32 = x.conv2d(&wm, None, pad).unwrap().data().iter().sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - gw.data()[i]).abs() < 1e-1, "weight grad {i}: {fd} vs {}", gw.data()[i]);
        }
    }

    #[test]
    fn conv1d_grads_match_finite_difference() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(22);
        let x = Tensor::rand_normal(&[1, 2, 6], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal(&[3, 2, 3], 0.0, 0.5, &mut rng);
        let pad = Pad1d::same(3);
        let y = x.conv1d(&w, None, pad, 1).unwrap();
        let go = Tensor::ones(y.shape());
        let gx = Tensor::conv1d_grad_input(&go, &w, x.shape(), pad, 1).unwrap();
        let gw = Tensor::conv1d_grad_weight(&go, &x, w.shape(), pad, 1).unwrap();
        let eps = 1e-2f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fp: f32 = xp.conv1d(&w, None, pad, 1).unwrap().data().iter().sum();
            let fm: f32 = xm.conv1d(&w, None, pad, 1).unwrap().data().iter().sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - gx.data()[i]).abs() < 1e-2);
        }
        for i in 0..w.len() {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let fp: f32 = x.conv1d(&wp, None, pad, 1).unwrap().data().iter().sum();
            let fm: f32 = x.conv1d(&wm, None, pad, 1).unwrap().data().iter().sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - gw.data()[i]).abs() < 1e-1);
        }
    }

    #[test]
    fn conv_bias_grads() {
        let go = Tensor::ones(&[2, 3, 4, 5]);
        let gb = Tensor::conv2d_grad_bias(&go).unwrap();
        assert_eq!(gb.data(), &[40.0, 40.0, 40.0]);
        let go1 = Tensor::ones(&[2, 3, 7]);
        let gb1 = Tensor::conv1d_grad_bias(&go1).unwrap();
        assert_eq!(gb1.data(), &[14.0, 14.0, 14.0]);
    }

    #[test]
    fn conv_rejects_bad_shapes() {
        let x = Tensor::zeros(&[1, 2, 4, 4]);
        let w = Tensor::zeros(&[1, 3, 3, 3]); // wrong cin
        assert!(x.conv2d(&w, None, (1, 1)).is_err());
        let x1 = Tensor::zeros(&[1, 1, 3]);
        let w1 = Tensor::zeros(&[1, 1, 5]); // kernel longer than input, no pad
        assert!(x1.conv1d(&w1, None, Pad1d { left: 0, right: 0 }, 1).is_err());
        assert!(x1.conv1d(&w1, None, Pad1d::same(5), 0).is_err()); // dilation 0
    }
    /// Geometry whose padded extent or dilated span overflows `usize` is a
    /// typed error at every entry point, not a wrapped (release) or
    /// panicking (debug) size.
    #[test]
    fn conv_rejects_overflowing_geometry() {
        let half = usize::MAX / 2 + 1;
        let invalid =
            |r: Result<Tensor>| assert!(matches!(r, Err(TensorError::Invalid(_))), "{r:?}");
        let (x1, w1) = (Tensor::ones(&[1, 1, 8]), Tensor::ones(&[1, 1, 3]));
        let same = Pad1d::same(3);
        invalid(x1.conv1d(&w1, None, same, half));
        invalid(x1.conv1d(&w1, None, Pad1d { left: usize::MAX, right: 1 }, 1));
        let (x2, w2) = (Tensor::ones(&[1, 1, 4, 4]), Tensor::ones(&[1, 1, 3, 3]));
        invalid(x2.conv2d(&w2, None, (half, 1)));
        let go1 = Tensor::ones(&[1, 1, 8]);
        invalid(Tensor::conv1d_grad_input(&go1, &w1, x1.shape(), same, half));
        invalid(Tensor::conv1d_grad_weight(&go1, &x1, w1.shape(), same, half));
        let go2 = Tensor::ones(&[1, 1, 4, 4]);
        invalid(Tensor::conv2d_grad_input(&go2, &w2, x2.shape(), (1, half)));
        invalid(Tensor::conv2d_grad_weight(&go2, &x2, w2.shape(), (half, 1)));
    }

    /// A view must tile its tensor exactly, and a conv through one must
    /// keep the operand's geometry; each violation is a typed error.
    #[test]
    fn conv_view_rejects_bad_views() {
        let invalid =
            |r: Result<Tensor>| assert!(matches!(r, Err(TensorError::Invalid(_))), "{r:?}");
        // `[2, 3, 4]` read as batch 2, 3 channels, a 1×4 plane.
        let x = Tensor::ones(&[2, 3, 4]);
        let view =
            ConvView { batch: [(2, 12), (1, 1)], channels: (3, 1), rows: (1, 1), cols: (4, 3) };
        assert_eq!(view.check(24), Ok(()));
        let w = Tensor::ones(&[3, 3, 1, 3]);
        let y = x.conv2d_view(&w, None, (0, 1), Some(view)).unwrap();
        assert_eq!(y.shape(), x.shape());
        // Overlapping strides, a gap, and a view of the wrong size.
        for bad in [
            ConvView { cols: (4, 1), ..view },
            ConvView { batch: [(2, 13), (1, 1)], ..view },
            ConvView { batch: [(3, 12), (1, 1)], ..view },
        ] {
            assert!(bad.check(24).is_err(), "{bad:?}");
            invalid(x.conv2d_view(&w, None, (0, 1), Some(bad)));
        }
        // C→C' and a shrinking conv cannot write through the input's view.
        invalid(x.conv2d_view(&Tensor::ones(&[2, 3, 1, 3]), None, (0, 1), Some(view)));
        invalid(x.conv2d_view(&w, None, (0, 0), Some(view)));
        // A 1-D view has one row.
        let two_rows = ConvView { rows: (2, 3), cols: (2, 6), ..view };
        assert_eq!(two_rows.check(24), Ok(()));
        let w1 = Tensor::ones(&[3, 3, 1]);
        invalid(x.conv1d_view(&w1, None, Pad1d::same(1), 1, Some(two_rows)));
        let go = Tensor::ones(&[2, 3, 5]);
        invalid(Tensor::conv_view_grad_bias(&go, view));
    }

    /// `grad_out` with 3 channels against a 2-out-channel weight.
    #[test]
    fn conv1d_grad_input_rejects_cout_mismatch() {
        let go = Tensor::ones(&[1, 3, 5]);
        let w = Tensor::ones(&[2, 1, 3]);
        let err = Tensor::conv1d_grad_input(&go, &w, &[1, 1, 5], Pad1d::same(3), 1);
        assert!(matches!(err, Err(TensorError::ShapeMismatch { .. })), "{err:?}");
    }

    #[test]
    fn conv1d_grad_input_rejects_rank1_input_shape() {
        let go = Tensor::ones(&[1, 2, 10]);
        let w = Tensor::ones(&[2, 1, 3]);
        let err = Tensor::conv1d_grad_input(&go, &w, &[10], Pad1d::same(3), 1);
        assert!(matches!(err, Err(TensorError::RankMismatch { .. })), "{err:?}");
    }

    #[test]
    fn conv1d_grad_weight_rejects_short_weight_shape() {
        let go = Tensor::ones(&[1, 2, 5]);
        let x = Tensor::ones(&[1, 1, 5]);
        let err = Tensor::conv1d_grad_weight(&go, &x, &[2, 1], Pad1d::same(3), 1);
        assert!(matches!(err, Err(TensorError::RankMismatch { .. })), "{err:?}");
    }

    #[test]
    fn conv1d_grad_weight_rejects_batch_mismatch() {
        let go = Tensor::ones(&[3, 2, 5]);
        let x = Tensor::ones(&[1, 1, 5]);
        let err = Tensor::conv1d_grad_weight(&go, &x, &[2, 1, 3], Pad1d::same(3), 1);
        assert!(matches!(err, Err(TensorError::ShapeMismatch { .. })), "{err:?}");
    }

    /// `input_shape` claims batch 1 and 2 in-channels; the real conv has
    /// batch 2 and 1 in-channel (same element count).
    #[test]
    fn conv2d_grad_input_rejects_wrong_input_shape() {
        let go = Tensor::ones(&[2, 1, 4, 4]);
        let w = Tensor::ones(&[1, 1, 3, 3]);
        let err = Tensor::conv2d_grad_input(&go, &w, &[1, 2, 4, 4], (1, 1));
        assert!(matches!(err, Err(TensorError::ShapeMismatch { .. })), "{err:?}");
    }

    /// A 2×2 `grad_out` cannot come from a same-padded 4×4 input.
    #[test]
    fn conv2d_grad_weight_rejects_grad_out_plane_mismatch() {
        let go = Tensor::ones(&[1, 1, 2, 2]);
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let err = Tensor::conv2d_grad_weight(&go, &x, &[1, 1, 3, 3], (1, 1));
        assert!(matches!(err, Err(TensorError::ShapeMismatch { .. })), "{err:?}");
    }

    /// An empty input plane with padding still has output pixels, at every
    /// one of which each tap reads the padding: no tap has a row or column
    /// to visit, no input is read, and every weight's gradient is `+0.0`,
    /// as the oracle's.
    #[test]
    fn conv_grad_weight_over_an_empty_input_plane_is_zero() {
        let x = Tensor::zeros(&[2, 1, 0, 3]);
        let go = Tensor::from_vec(vec![f32::NAN; 2 * 2 * 2 * 3], &[2, 2, 2, 3]).unwrap();
        let gw = Tensor::conv2d_grad_weight(&go, &x, &[2, 1, 1, 1], (1, 0)).unwrap();
        let want = oracle::conv2d_grad_weight(&go, &x, &[2, 1, 1, 1], (1, 0));
        assert_eq!(gw.data(), want.data());
        assert!(gw.data().iter().all(|v| v.to_bits() == 0), "{:?}", gw.data());
        let (x1, go1) = (Tensor::zeros(&[1, 1, 0]), Tensor::ones(&[1, 1, 2]));
        let gw1 = Tensor::conv1d_grad_weight(&go1, &x1, &[1, 1, 1], Pad1d::same(3), 1);
        assert_eq!(gw1.unwrap().data(), &[0.0]);
    }
}
