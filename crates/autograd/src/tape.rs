//! Op metadata recorded on the tape, and the executable-free tape snapshot
//! consumed by `sthsl-graphcheck`.
//!
//! Every node a [`crate::Graph`] records carries an [`OpKind`] describing
//! *what* the op is (kind plus attributes) independently of *how* it runs
//! (the forward value and backward closure). [`Graph::export_tape`] then
//! projects the tape into a [`TapeSpec`] — plain data, no tensors, no
//! closures — which analysis passes can walk without executing anything.
//!
//! [`OpKind::infer_shape`] is the single source of truth for ahead-of-time
//! shape rules. In debug builds `Graph::op` cross-checks every inferred
//! shape against the runtime shape, so the whole existing test suite doubles
//! as a conformance suite for the inference rules.
//!
//! [`Graph::export_tape`]: crate::Graph::export_tape

use sthsl_tensor::ops::conv::ConvView;

/// Kind and attributes of one tape node. Attributes are everything the op's
/// *shape and hazard semantics* depend on; runtime-only details (RNG masks,
/// captured tensors) stay in the backward closure.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// Gradient-tracked input (parameter). Shape comes from outside the tape.
    Leaf,
    /// Non-differentiable input (data, targets, masks).
    Constant,
    /// Elementwise `a + b` with NumPy broadcasting.
    Add,
    /// Elementwise `a - b` with broadcasting.
    Sub,
    /// Elementwise `a * b` with broadcasting.
    Mul,
    /// Elementwise `a / b` with broadcasting. NaN hazard: denominator.
    Div,
    /// `s * x`.
    Scale { s: f32 },
    /// `x + s`.
    AddScalar { s: f32 },
    /// Elementwise `x * x`.
    Square,
    /// LeakyReLU with negative slope `alpha`.
    LeakyRelu { alpha: f32 },
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Elementwise exponential.
    Exp,
    /// `ln(x + eps)`. NaN hazard: `x + eps` must stay positive.
    LnEps { eps: f32 },
    /// `sqrt(x + eps)`. NaN hazard: `x + eps` must stay non-negative.
    SqrtEps { eps: f32 },
    /// Numerically stable `ln(1 + e^x)`.
    Softplus,
    /// Inverted dropout with keep-scaling (training mode only).
    Dropout { p: f32 },
    /// Reshape to `shape` (same element count).
    Reshape { shape: Vec<usize> },
    /// Axis permutation: `out[i] = in[perm[i]]`.
    Permute { perm: Vec<usize> },
    /// Concatenate parents along `axis`.
    Concat { axis: usize },
    /// Contiguous slice `[start, start+len)` along `axis`.
    SliceAxis { axis: usize, start: usize, len: usize },
    /// Zero-pad along `axis`.
    PadAxis { axis: usize, before: usize, after: usize },
    /// Gather `indices` along `axis` (duplicates allowed).
    IndexSelect { axis: usize, indices: Vec<usize> },
    /// 2-D matrix product `[m,k] · [k,n] → [m,n]`.
    Matmul,
    /// Batched matrix product `[b,m,k] · [b,k,n] → [b,m,n]`, or with
    /// `lhs_transposed`, `[b,k,m]ᵀ · [b,k,n] → [b,m,n]` (the lhs is read
    /// transposed, never copied).
    BatchedMatmul { lhs_transposed: bool },
    /// 2-D transpose.
    Transpose2d,
    /// Sum of all elements → scalar.
    SumAll,
    /// Mean of all elements → scalar.
    MeanAll,
    /// Sum along `axis`, removing it.
    SumAxis { axis: usize },
    /// Mean along `axis`, removing it.
    MeanAxis { axis: usize },
    /// Softmax over the last axis.
    SoftmaxLastdim,
    /// Log-softmax over the last axis.
    LogSoftmaxLastdim,
    /// 2-D convolution, stride 1, symmetric padding `(ph, pw)`. With a
    /// `view`, the input is the operand the view reads, and the output has
    /// the input's shape (see [`ConvView`]).
    Conv2d { pad: (usize, usize), has_bias: bool, view: Option<ConvView> },
    /// 1-D convolution with explicit left/right padding and dilation, and
    /// an optional view as [`OpKind::Conv2d`]'s.
    Conv1d {
        pad_left: usize,
        pad_right: usize,
        dilation: usize,
        has_bias: bool,
        view: Option<ConvView>,
    },
    /// Diagonal InfoNCE over square logits → scalar.
    InfoNceDiag,
    /// Escape hatch for ops the analyzer cannot model (test doubles).
    Opaque { name: &'static str },
}

impl OpKind {
    /// Stable snake-case name, matching the `Graph` method that records the
    /// op. Used for report grouping.
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::Leaf => "leaf",
            OpKind::Constant => "constant",
            OpKind::Add => "add",
            OpKind::Sub => "sub",
            OpKind::Mul => "mul",
            OpKind::Div => "div",
            OpKind::Scale { .. } => "scale",
            OpKind::AddScalar { .. } => "add_scalar",
            OpKind::Square => "square",
            OpKind::LeakyRelu { .. } => "leaky_relu",
            OpKind::Sigmoid => "sigmoid",
            OpKind::Tanh => "tanh",
            OpKind::Exp => "exp",
            OpKind::LnEps { .. } => "ln_eps",
            OpKind::SqrtEps { .. } => "sqrt_eps",
            OpKind::Softplus => "softplus",
            OpKind::Dropout { .. } => "dropout",
            OpKind::Reshape { .. } => "reshape",
            OpKind::Permute { .. } => "permute",
            OpKind::Concat { .. } => "concat",
            OpKind::SliceAxis { .. } => "slice_axis",
            OpKind::PadAxis { .. } => "pad_axis",
            OpKind::IndexSelect { .. } => "index_select",
            OpKind::Matmul => "matmul",
            OpKind::BatchedMatmul { .. } => "batched_matmul",
            OpKind::Transpose2d => "transpose2d",
            OpKind::SumAll => "sum_all",
            OpKind::MeanAll => "mean_all",
            OpKind::SumAxis { .. } => "sum_axis",
            OpKind::MeanAxis { .. } => "mean_axis",
            OpKind::SoftmaxLastdim => "softmax_lastdim",
            OpKind::LogSoftmaxLastdim => "log_softmax_lastdim",
            OpKind::Conv2d { .. } => "conv2d",
            OpKind::Conv1d { .. } => "conv1d",
            OpKind::InfoNceDiag => "info_nce_diag",
            OpKind::Opaque { .. } => "opaque",
        }
    }

    /// Human-readable rendering with the shape-relevant attributes inline,
    /// e.g. `sum_axis(axis=1)` or `conv2d(pad=(1,1))`.
    pub fn display(&self) -> String {
        match self {
            OpKind::Scale { s } => format!("scale(s={s})"),
            OpKind::AddScalar { s } => format!("add_scalar(s={s})"),
            OpKind::LeakyRelu { alpha } => format!("leaky_relu(alpha={alpha})"),
            OpKind::LnEps { eps } => format!("ln_eps(eps={eps:e})"),
            OpKind::SqrtEps { eps } => format!("sqrt_eps(eps={eps:e})"),
            OpKind::Dropout { p } => format!("dropout(p={p})"),
            OpKind::Reshape { shape } => format!("reshape({shape:?})"),
            OpKind::Permute { perm } => format!("permute({perm:?})"),
            OpKind::Concat { axis } => format!("concat(axis={axis})"),
            OpKind::SliceAxis { axis, start, len } => {
                format!("slice_axis(axis={axis}, start={start}, len={len})")
            }
            OpKind::PadAxis { axis, before, after } => {
                format!("pad_axis(axis={axis}, before={before}, after={after})")
            }
            OpKind::IndexSelect { axis, indices } => {
                format!("index_select(axis={axis}, n={})", indices.len())
            }
            OpKind::SumAxis { axis } => format!("sum_axis(axis={axis})"),
            OpKind::MeanAxis { axis } => format!("mean_axis(axis={axis})"),
            OpKind::BatchedMatmul { lhs_transposed: true } => "batched_matmul(lhs^T)".to_string(),
            OpKind::Conv2d { pad, has_bias, view } => {
                format!("conv2d(pad=({},{}), bias={has_bias}{})", pad.0, pad.1, view_note(*view))
            }
            OpKind::Conv1d { pad_left, pad_right, dilation, has_bias, view } => format!(
                "conv1d(pad=({pad_left},{pad_right}), dilation={dilation}, bias={has_bias}{})",
                view_note(*view)
            ),
            OpKind::Opaque { name } => format!("opaque({name})"),
            _ => self.name().to_string(),
        }
    }

    /// True for input nodes whose shape is given, not inferred.
    pub fn is_input(&self) -> bool {
        matches!(self, OpKind::Leaf | OpKind::Constant)
    }

    /// Ahead-of-time output shape from parent shapes, mirroring the runtime
    /// kernels exactly. `Ok(None)` means the shape is not inferable (inputs,
    /// [`OpKind::Opaque`]); `Err` carries a diagnostic for graphs the runtime
    /// would reject.
    pub fn infer_shape(&self, ps: &[Vec<usize>]) -> Result<Option<Vec<usize>>, String> {
        match self {
            OpKind::Leaf | OpKind::Constant | OpKind::Opaque { .. } => Ok(None),

            OpKind::Add | OpKind::Sub | OpKind::Mul | OpKind::Div => {
                let [a, b] = two(self, ps)?;
                broadcast(self, a, b).map(Some)
            }

            OpKind::Scale { .. }
            | OpKind::AddScalar { .. }
            | OpKind::Square
            | OpKind::LeakyRelu { .. }
            | OpKind::Sigmoid
            | OpKind::Tanh
            | OpKind::Exp
            | OpKind::LnEps { .. }
            | OpKind::SqrtEps { .. }
            | OpKind::Softplus
            | OpKind::Dropout { .. } => Ok(Some(one(self, ps)?.clone())),

            OpKind::Reshape { shape } => {
                let x = one(self, ps)?;
                if numel(x) != numel(shape) {
                    return Err(format!(
                        "reshape: cannot view {x:?} ({} elements) as {shape:?} ({} elements)",
                        numel(x),
                        numel(shape)
                    ));
                }
                Ok(Some(shape.clone()))
            }

            OpKind::Permute { perm } => {
                let x = one(self, ps)?;
                if perm.len() != x.len() || !is_permutation(perm) {
                    return Err(format!(
                        "permute: {perm:?} is not a permutation of axes of rank-{} input {x:?}",
                        x.len()
                    ));
                }
                Ok(Some(perm.iter().map(|&p| x[p]).collect()))
            }

            OpKind::Concat { axis } => {
                let first =
                    ps.first().ok_or_else(|| "concat: needs at least one input".to_string())?;
                check_axis(self, first, *axis)?;
                let mut total = 0usize;
                for p in ps {
                    if p.len() != first.len() {
                        return Err(format!("concat: rank mismatch, {first:?} vs {p:?}"));
                    }
                    for (d, (&a, &b)) in first.iter().zip(p).enumerate() {
                        if d != *axis && a != b {
                            return Err(format!(
                                "concat(axis={axis}): non-axis dims differ, {first:?} vs {p:?}"
                            ));
                        }
                    }
                    total += p[*axis];
                }
                let mut out = first.clone();
                out[*axis] = total;
                Ok(Some(out))
            }

            OpKind::SliceAxis { axis, start, len } => {
                let x = one(self, ps)?;
                check_axis(self, x, *axis)?;
                if start + len > x[*axis] {
                    return Err(format!(
                        "slice_axis(axis={axis}): range [{start}, {}) out of bounds for dim {}",
                        start + len,
                        x[*axis]
                    ));
                }
                let mut out = x.clone();
                out[*axis] = *len;
                Ok(Some(out))
            }

            OpKind::PadAxis { axis, before, after } => {
                let x = one(self, ps)?;
                check_axis(self, x, *axis)?;
                let mut out = x.clone();
                out[*axis] += before + after;
                Ok(Some(out))
            }

            OpKind::IndexSelect { axis, indices } => {
                let x = one(self, ps)?;
                check_axis(self, x, *axis)?;
                if let Some(&bad) = indices.iter().find(|&&i| i >= x[*axis]) {
                    return Err(format!(
                        "index_select(axis={axis}): index {bad} out of bounds for dim {}",
                        x[*axis]
                    ));
                }
                let mut out = x.clone();
                out[*axis] = indices.len();
                Ok(Some(out))
            }

            OpKind::Matmul => {
                let [a, b] = two(self, ps)?;
                match (a.as_slice(), b.as_slice()) {
                    ([m, k], [k2, n]) if k == k2 => Ok(Some(vec![*m, *n])),
                    _ => Err(format!("{}: expected [m,k] · [k,n], got {a:?} · {b:?}", self.name())),
                }
            }

            OpKind::BatchedMatmul { lhs_transposed } => {
                let [a, b] = two(self, ps)?;
                match (a.as_slice(), b.as_slice(), lhs_transposed) {
                    ([ba, m, k], [bb, k2, n], false) | ([ba, k, m], [bb, k2, n], true)
                        if ba == bb && k == k2 =>
                    {
                        Ok(Some(vec![*ba, *m, *n]))
                    }
                    (.., false) => Err(format!(
                        "batched_matmul: expected [b,m,k] · [b,k,n], got {a:?} · {b:?}"
                    )),
                    (.., true) => Err(format!(
                        "batched_matmul: expected [b,k,m]ᵀ · [b,k,n], got {a:?} · {b:?}"
                    )),
                }
            }

            OpKind::Transpose2d => {
                let x = one(self, ps)?;
                match x.as_slice() {
                    [m, n] => Ok(Some(vec![*n, *m])),
                    _ => Err(format!("transpose2d: expected rank-2 input, got {x:?}")),
                }
            }

            OpKind::SumAll | OpKind::MeanAll | OpKind::InfoNceDiag => {
                let x = one(self, ps)?;
                if *self == OpKind::InfoNceDiag {
                    match x.as_slice() {
                        [n, n2] if n == n2 => {}
                        _ => {
                            return Err(format!("info_nce_diag: logits must be square, got {x:?}"))
                        }
                    }
                }
                Ok(Some(vec![]))
            }

            OpKind::SumAxis { axis } | OpKind::MeanAxis { axis } => {
                let x = one(self, ps)?;
                check_axis(self, x, *axis)?;
                let mut out = x.clone();
                out.remove(*axis);
                Ok(Some(out))
            }

            OpKind::SoftmaxLastdim | OpKind::LogSoftmaxLastdim => {
                let x = one(self, ps)?;
                if x.is_empty() {
                    return Err(format!("{}: input must have rank >= 1", self.name()));
                }
                Ok(Some(x.clone()))
            }

            OpKind::Conv2d { pad: (ph, pw), has_bias, view } => {
                let (x, w) = conv_io(self, ps, *has_bias)?;
                let operand = conv_operand(self, x, *view, 4)?;
                match (operand.as_slice(), w.as_slice()) {
                    ([b, cin, h, wd], [cout, cin_w, kh, kw]) => {
                        if cin != cin_w {
                            return Err(format!(
                                "conv2d: input channels {cin} != weight channels {cin_w}"
                            ));
                        }
                        check_conv_bias(self, ps, *has_bias, *cout)?;
                        if *kh == 0 || *kw == 0 {
                            return Err("conv2d: kernel dims must be >= 1".to_string());
                        }
                        let oh = conv_out_len("conv2d", *h, (*ph, *ph), *kh, 1)?;
                        let ow = conv_out_len("conv2d", *wd, (*pw, *pw), *kw, 1)?;
                        conv_output(self, x, &operand, vec![*b, *cout, oh, ow], *view)
                    }
                    _ => Err(format!(
                        "conv2d: expected x [B,Cin,H,W] and w [Cout,Cin,kh,kw], got {x:?} and {w:?}"
                    )),
                }
            }

            OpKind::Conv1d { pad_left, pad_right, dilation, has_bias, view } => {
                let (x, w) = conv_io(self, ps, *has_bias)?;
                let operand = conv_operand(self, x, *view, 3)?;
                match (operand.as_slice(), w.as_slice()) {
                    ([b, cin, l], [cout, cin_w, k]) => {
                        if cin != cin_w {
                            return Err(format!(
                                "conv1d: input channels {cin} != weight channels {cin_w}"
                            ));
                        }
                        check_conv_bias(self, ps, *has_bias, *cout)?;
                        if *dilation == 0 {
                            return Err("conv1d: dilation must be >= 1".to_string());
                        }
                        if *k == 0 {
                            return Err("conv1d: kernel length must be >= 1".to_string());
                        }
                        let pad = (*pad_left, *pad_right);
                        let ol = conv_out_len("conv1d", *l, pad, *k, *dilation)?;
                        conv_output(self, x, &operand, vec![*b, *cout, ol], *view)
                    }
                    _ => Err(format!(
                        "conv1d: expected x [B,Cin,L] and w [Cout,Cin,k], got {x:?} and {w:?}"
                    )),
                }
            }
        }
    }
}

fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// `, view` in a conv's display when it reads through one.
fn view_note(view: Option<ConvView>) -> &'static str {
    if view.is_some() {
        ", view"
    } else {
        ""
    }
}

/// The `[B, C, H, W]` (`rank` 4) or `[B, C, L]` (`rank` 3) operand a conv
/// reads: `x` itself, or what `view` reads out of it.
fn conv_operand(
    kind: &OpKind,
    x: &[usize],
    view: Option<ConvView>,
    rank: usize,
) -> Result<Vec<usize>, String> {
    let Some(v) = view else { return Ok(x.to_vec()) };
    v.check(numel(x)).map_err(|e| format!("{}: {e}", kind.name()))?;
    let [b, c, h, w] = v.dims();
    match rank {
        3 if h == 1 => Ok(vec![b, c, w]),
        3 => Err(format!("{}: a 1-D view has one row, got {v:?}", kind.name())),
        _ => Ok(vec![b, c, h, w]),
    }
}

/// A conv's output shape: `dense` without a view; through one, `x`'s own
/// shape, which needs the output geometry to equal the operand's.
fn conv_output(
    kind: &OpKind,
    x: &[usize],
    operand: &[usize],
    dense: Vec<usize>,
    view: Option<ConvView>,
) -> Result<Option<Vec<usize>>, String> {
    match view {
        None => Ok(Some(dense)),
        Some(_) if dense == operand => Ok(Some(x.to_vec())),
        Some(_) => Err(format!(
            "{}: a conv through a view must map its operand {operand:?} to the same \
             geometry, got {dense:?}",
            kind.name()
        )),
    }
}

fn is_permutation(perm: &[usize]) -> bool {
    let mut seen = vec![false; perm.len()];
    perm.iter().all(|&p| p < perm.len() && !std::mem::replace(&mut seen[p], true))
}

fn one<'a>(kind: &OpKind, ps: &'a [Vec<usize>]) -> Result<&'a Vec<usize>, String> {
    match ps {
        [x] => Ok(x),
        _ => Err(format!("{}: expected 1 input, got {}", kind.name(), ps.len())),
    }
}

fn two<'a>(kind: &OpKind, ps: &'a [Vec<usize>]) -> Result<[&'a Vec<usize>; 2], String> {
    match ps {
        [a, b] => Ok([a, b]),
        _ => Err(format!("{}: expected 2 inputs, got {}", kind.name(), ps.len())),
    }
}

fn check_axis(kind: &OpKind, shape: &[usize], axis: usize) -> Result<(), String> {
    if axis >= shape.len() {
        return Err(format!(
            "{}: axis {axis} out of range for rank-{} shape {shape:?}",
            kind.name(),
            shape.len()
        ));
    }
    Ok(())
}

/// NumPy trailing-axes broadcast, mirroring `sthsl_tensor::shape::broadcast_shapes`.
fn broadcast(kind: &OpKind, lhs: &[usize], rhs: &[usize]) -> Result<Vec<usize>, String> {
    let ndim = lhs.len().max(rhs.len());
    let mut out = vec![0usize; ndim];
    for (i, slot) in out.iter_mut().enumerate() {
        let l = if i < ndim - lhs.len() { 1 } else { lhs[i - (ndim - lhs.len())] };
        let r = if i < ndim - rhs.len() { 1 } else { rhs[i - (ndim - rhs.len())] };
        if l == r || l == 1 || r == 1 {
            *slot = if l == 1 { r } else { l };
        } else {
            return Err(format!(
                "{}: shapes {lhs:?} and {rhs:?} are not broadcastable",
                kind.name()
            ));
        }
    }
    Ok(out)
}

fn conv_io<'a>(
    kind: &OpKind,
    ps: &'a [Vec<usize>],
    has_bias: bool,
) -> Result<(&'a Vec<usize>, &'a Vec<usize>), String> {
    let want = if has_bias { 3 } else { 2 };
    if ps.len() != want {
        return Err(format!("{}: expected {want} inputs, got {}", kind.name(), ps.len()));
    }
    Ok((&ps[0], &ps[1]))
}

fn check_conv_bias(
    kind: &OpKind,
    ps: &[Vec<usize>],
    has_bias: bool,
    cout: usize,
) -> Result<(), String> {
    if has_bias && ps[2].as_slice() != [cout] {
        return Err(format!("{}: bias shape {:?} != [{cout}]", kind.name(), ps[2]));
    }
    Ok(())
}

/// Output extent of a stride-1 conv axis: `len + lo + hi − dilation·(k−1)`
/// for `k >= 1`, in checked arithmetic, so that an overflowing geometry is an
/// error rather than a wrapped size.
fn conv_out_len(
    op: &str,
    len: usize,
    (lo, hi): (usize, usize),
    k: usize,
    dilation: usize,
) -> Result<usize, String> {
    let padded = len
        .checked_add(lo)
        .and_then(|n| n.checked_add(hi))
        .ok_or_else(|| format!("{op}: padded extent {len} + {lo} + {hi} overflows usize"))?;
    let span = k.checked_sub(1).and_then(|n| n.checked_mul(dilation)).ok_or_else(|| {
        format!("{op}: span of kernel {k} at dilation {dilation} overflows usize")
    })?;
    padded
        .checked_sub(span)
        .ok_or_else(|| format!("{op}: kernel span {span} exceeds padded extent {padded}"))
}

/// One node of an exported tape: pure data, safe to build by hand in tests.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// What the op is.
    pub kind: OpKind,
    /// Tape indices of the inputs, all `<` this node's own index.
    pub parents: Vec<usize>,
    /// Diagnostic name for inputs (parameter names, data labels).
    pub label: Option<String>,
    /// Whether gradient flows into / through this node.
    pub requires_grad: bool,
    /// Runtime shape when exported from an executed graph; for hand-built
    /// specs, the given shape of input nodes (`None` on op nodes lets the
    /// analyzer exercise pure ahead-of-time inference).
    pub runtime_shape: Option<Vec<usize>>,
    /// Observed `(min, max)` over the node's forward value at export time.
    /// For inputs this doubles as the *declared* range the interval pass
    /// seeds from; for op nodes it is the runtime witness the pass checks
    /// its predicted interval against. `(NaN, NaN)` records "contains NaN";
    /// `None` means unranged (empty tensor, or a hand-built spec).
    pub value_range: Option<(f32, f32)>,
}

/// An executable-free snapshot of an autograd tape, in topological order.
#[derive(Debug, Clone, Default)]
pub struct TapeSpec {
    /// Nodes in tape order (parents precede children).
    pub nodes: Vec<NodeSpec>,
}

impl TapeSpec {
    /// Empty spec, for hand-building analysis fixtures.
    pub fn new() -> Self {
        TapeSpec::default()
    }

    /// Append a gradient-tracked input with a diagnostic name.
    pub fn leaf(&mut self, label: &str, shape: &[usize]) -> usize {
        self.nodes.push(NodeSpec {
            kind: OpKind::Leaf,
            parents: vec![],
            label: Some(label.to_string()),
            requires_grad: true,
            runtime_shape: Some(shape.to_vec()),
            value_range: None,
        });
        self.nodes.len() - 1
    }

    /// Append a gradient-tracked input with a declared value range for the
    /// interval pass to seed from.
    pub fn leaf_ranged(&mut self, label: &str, shape: &[usize], lo: f32, hi: f32) -> usize {
        let i = self.leaf(label, shape);
        self.nodes[i].value_range = Some((lo, hi));
        i
    }

    /// Append a non-differentiable input.
    pub fn constant(&mut self, shape: &[usize]) -> usize {
        self.nodes.push(NodeSpec {
            kind: OpKind::Constant,
            parents: vec![],
            label: None,
            requires_grad: false,
            runtime_shape: Some(shape.to_vec()),
            value_range: None,
        });
        self.nodes.len() - 1
    }

    /// Append a non-differentiable input with a declared value range.
    pub fn constant_ranged(&mut self, shape: &[usize], lo: f32, hi: f32) -> usize {
        let i = self.constant(shape);
        self.nodes[i].value_range = Some((lo, hi));
        i
    }

    /// Append an op node; `requires_grad` is inherited from the parents.
    pub fn push(&mut self, kind: OpKind, parents: &[usize]) -> usize {
        let requires_grad =
            parents.iter().any(|&p| self.nodes.get(p).is_some_and(|n| n.requires_grad));
        self.nodes.push(NodeSpec {
            kind,
            parents: parents.to_vec(),
            label: None,
            requires_grad,
            runtime_shape: None,
            value_range: None,
        });
        self.nodes.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elementwise_broadcast_rules() {
        let k = OpKind::Add;
        assert_eq!(k.infer_shape(&[vec![2, 3], vec![3]]).unwrap(), Some(vec![2, 3]));
        assert_eq!(k.infer_shape(&[vec![4, 1, 3], vec![2, 1]]).unwrap(), Some(vec![4, 2, 3]));
        // Scalars (rank 0) broadcast against anything.
        assert_eq!(k.infer_shape(&[vec![], vec![5]]).unwrap(), Some(vec![5]));
        assert!(k.infer_shape(&[vec![2, 3], vec![4]]).is_err());
    }

    #[test]
    fn matmul_and_reduction_rules() {
        assert_eq!(
            OpKind::Matmul.infer_shape(&[vec![3, 4], vec![4, 2]]).unwrap(),
            Some(vec![3, 2])
        );
        assert!(OpKind::Matmul.infer_shape(&[vec![3, 4], vec![5, 2]]).is_err());
        assert_eq!(
            OpKind::SumAxis { axis: 1 }.infer_shape(&[vec![2, 3, 4]]).unwrap(),
            Some(vec![2, 4])
        );
        assert_eq!(OpKind::SumAll.infer_shape(&[vec![2, 3]]).unwrap(), Some(vec![]));
        assert!(OpKind::SumAxis { axis: 3 }.infer_shape(&[vec![2, 3]]).is_err());
    }

    #[test]
    fn conv_rules_match_kernel_arithmetic() {
        let k = OpKind::Conv2d { pad: (1, 1), has_bias: true, view: None };
        assert_eq!(
            k.infer_shape(&[vec![1, 2, 4, 4], vec![3, 2, 3, 3], vec![3]]).unwrap(),
            Some(vec![1, 3, 4, 4])
        );
        assert!(k.infer_shape(&[vec![1, 2, 4, 4], vec![3, 2, 3, 3], vec![5]]).is_err());
        let c1 =
            OpKind::Conv1d { pad_left: 2, pad_right: 0, dilation: 2, has_bias: false, view: None };
        // causal pad for k=2, dilation=2: L stays 8.
        assert_eq!(c1.infer_shape(&[vec![2, 2, 8], vec![3, 2, 2]]).unwrap(), Some(vec![2, 3, 8]));
    }

    /// Through a view, a conv reads the operand the view describes and
    /// returns its input's shape; a view that does not tile the input, or a
    /// conv that would change the geometry, is rejected.
    #[test]
    fn view_conv_rules() {
        // `[R=4, Tw=3, C=2, d=5]` read as batch (Tw, d), channels C, a 2×2 plane.
        let (x, cd) = (vec![4, 3, 2, 5], 2 * 5);
        let view = ConvView {
            batch: [(3, cd), (5, 1)],
            channels: (2, 5),
            rows: (2, 2 * 3 * cd),
            cols: (2, 3 * cd),
        };
        let k = OpKind::Conv2d { pad: (1, 1), has_bias: true, view: Some(view) };
        assert_eq!(
            k.infer_shape(&[x.clone(), vec![2, 2, 3, 3], vec![2]]).unwrap(),
            Some(x.clone())
        );
        // C→C' and shrinking convs cannot write through the input's view.
        assert!(k.infer_shape(&[x.clone(), vec![3, 2, 3, 3], vec![3]]).is_err());
        let valid = OpKind::Conv2d { pad: (0, 0), has_bias: false, view: Some(view) };
        assert!(valid.infer_shape(&[x.clone(), vec![2, 2, 3, 3]]).is_err());
        // The view must tile the input.
        assert!(k.infer_shape(&[vec![4, 3, 2, 6], vec![2, 2, 3, 3], vec![2]]).is_err());
        // A 1-D view has one row.
        let c1 = OpKind::Conv1d {
            pad_left: 1,
            pad_right: 1,
            dilation: 1,
            has_bias: false,
            view: Some(view),
        };
        assert!(c1.infer_shape(&[x, vec![2, 2, 3]]).is_err());
    }

    /// Geometry whose padded extent or dilated span overflows `usize` is an
    /// error, not a wrapped (release) or panicking (debug) size.
    #[test]
    fn conv_rules_reject_overflowing_geometry() {
        let half = usize::MAX / 2 + 1;
        let conv1d = |pad_left, dilation| OpKind::Conv1d {
            pad_left,
            pad_right: 1,
            dilation,
            has_bias: false,
            view: None,
        };
        let (x1, w1) = (vec![1, 1, 8], vec![1, 1, 3]);
        for kind in [conv1d(1, half), conv1d(usize::MAX, 1)] {
            let err = kind.infer_shape(&[x1.clone(), w1.clone()]).unwrap_err();
            assert!(err.contains("overflows usize"), "{err}");
        }
        let conv2d = OpKind::Conv2d { pad: (half, 1), has_bias: false, view: None };
        let err = conv2d.infer_shape(&[vec![1, 1, 4, 4], vec![1, 1, 3, 3]]).unwrap_err();
        assert!(err.contains("overflows usize"), "{err}");
    }

    #[test]
    fn manip_rules() {
        assert_eq!(
            OpKind::Permute { perm: vec![2, 0, 1] }.infer_shape(&[vec![2, 3, 4]]).unwrap(),
            Some(vec![4, 2, 3])
        );
        assert!(OpKind::Permute { perm: vec![0, 0, 1] }.infer_shape(&[vec![2, 3, 4]]).is_err());
        assert_eq!(
            OpKind::Concat { axis: 1 }.infer_shape(&[vec![2, 2], vec![2, 3]]).unwrap(),
            Some(vec![2, 5])
        );
        assert!(OpKind::Concat { axis: 0 }.infer_shape(&[vec![2, 2], vec![2, 3]]).is_err());
        assert!(OpKind::Reshape { shape: vec![5] }.infer_shape(&[vec![2, 3]]).is_err());
        assert_eq!(
            OpKind::IndexSelect { axis: 0, indices: vec![0, 2, 0] }
                .infer_shape(&[vec![4, 2]])
                .unwrap(),
            Some(vec![3, 2])
        );
        assert!(OpKind::IndexSelect { axis: 0, indices: vec![4] }
            .infer_shape(&[vec![4, 2]])
            .is_err());
    }

    #[test]
    fn spec_builder_inherits_requires_grad() {
        let mut spec = TapeSpec::new();
        let w = spec.leaf("w", &[2, 2]);
        let c = spec.constant(&[2, 2]);
        let m = spec.push(OpKind::Mul, &[w, c]);
        let d = spec.push(OpKind::Square, &[c]);
        assert!(spec.nodes[m].requires_grad);
        assert!(!spec.nodes[d].requires_grad);
    }
}
