//! Op metadata recorded on the tape, and the executable-free tape snapshot
//! consumed by `sthsl-graphcheck`.
//!
//! Every node a [`crate::Graph`] records carries an [`OpKind`] describing
//! *what* the op is (kind plus attributes) independently of *how* it runs
//! (the forward value and backward closure). [`Graph::export_tape`] then
//! projects the tape into a [`TapeSpec`] — plain data, no tensors, no
//! closures — which analysis passes can walk without executing anything.
//!
//! Shapes have one set of rules, the tensor kernels': they compute every
//! output shape and reject malformed operands with a typed error before a
//! node is recorded, so each exported node carries the shape its kernel
//! produced.
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
            _ => self.name().to_string(),
        }
    }

    /// True for input nodes (parameters and data), which take no parents.
    pub fn is_input(&self) -> bool {
        matches!(self, OpKind::Leaf | OpKind::Constant)
    }
}

/// `, view` in a conv's display when it reads through one.
fn view_note(view: Option<ConvView>) -> &'static str {
    if view.is_some() {
        ", view"
    } else {
        ""
    }
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
    /// Shape of the node's value: the one its kernel produced when
    /// exported from an executed graph, the one given for a hand-built spec.
    pub shape: Vec<usize>,
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
            shape: shape.to_vec(),
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
            shape: shape.to_vec(),
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

    /// Append an op node with output `shape`; `requires_grad` is inherited
    /// from the parents.
    pub fn push(&mut self, kind: OpKind, parents: &[usize], shape: &[usize]) -> usize {
        let requires_grad =
            parents.iter().any(|&p| self.nodes.get(p).is_some_and(|n| n.requires_grad));
        self.nodes.push(NodeSpec {
            kind,
            parents: parents.to_vec(),
            label: None,
            requires_grad,
            shape: shape.to_vec(),
            value_range: None,
        });
        self.nodes.len() - 1
    }
}

#[cfg(test)]
mod tests {
    //! The rules tests below drive each op through the `Graph` method that
    //! records it: an accepted op leaves a node carrying the shape its
    //! kernel computed, and a malformed one comes back as a typed `Err`,
    //! never a panic and never a recorded node.

    use std::panic::catch_unwind;

    use sthsl_tensor::ops::conv::Pad1d;
    use sthsl_tensor::{Result, Tensor};

    use super::*;
    use crate::{Graph, Var};

    fn x(g: &Graph, shape: &[usize]) -> Var {
        g.leaf(Tensor::zeros(shape))
    }

    /// The shape the exported tape records for the node `op` returns.
    fn recorded(op: impl FnOnce(&Graph) -> Result<Var>) -> Vec<usize> {
        let g = Graph::new();
        let v = op(&g).expect("a well-formed op is accepted");
        g.export_tape().nodes[v.index()].shape.clone()
    }

    /// What is malformed, a fragment of the error's `Debug` form that names
    /// the check which caught it, and the op call.
    type Case = (&'static str, &'static str, fn(&Graph) -> Result<Var>);

    fn assert_rejected(cases: &[Case]) {
        for &(name, reason, case) in cases {
            let outcome = catch_unwind(|| {
                let g = Graph::new();
                let res = case(&g).map(Var::index);
                (res, g.export_tape().nodes.iter().all(|n| n.kind.is_input()))
            });
            let Ok((res, only_inputs)) = outcome else { panic!("{name}: the op panicked") };
            match res {
                Ok(v) => panic!("{name}: accepted, recorded %{v}"),
                Err(e) => assert!(format!("{e:?}").contains(reason), "{name}: rejected as {e:?}"),
            }
            assert!(only_inputs, "{name}: the rejected op left a node on the tape");
        }
    }

    /// `[R=4, Tw=3, C=2, d=5]` read as batch (Tw, d), channels C and a 2×2
    /// plane of the R axis: the layout the local encoder's convs read.
    fn plane_view() -> ConvView {
        let cd = 2 * 5;
        ConvView {
            batch: [(3, cd), (5, 1)],
            channels: (2, 5),
            rows: (2, 2 * 3 * cd),
            cols: (2, 3 * cd),
        }
    }

    #[test]
    fn elementwise_broadcast_rules() {
        assert_eq!(recorded(|g| g.add(x(g, &[2, 3]), x(g, &[3]))), [2, 3]);
        assert_eq!(recorded(|g| g.add(x(g, &[4, 1, 3]), x(g, &[2, 1]))), [4, 2, 3]);
        // Scalars (rank 0) broadcast against anything.
        assert_eq!(recorded(|g| g.add(x(g, &[]), x(g, &[5]))), [5]);
        assert_rejected(&[("add: not broadcastable", "ShapeMismatch", |g| {
            g.add(x(g, &[2, 3]), x(g, &[4]))
        })]);
    }

    #[test]
    fn matmul_and_reduction_rules() {
        assert_eq!(recorded(|g| g.matmul(x(g, &[3, 4]), x(g, &[4, 2]))), [3, 2]);
        assert_eq!(recorded(|g| g.sum_axis(x(g, &[2, 3, 4]), 1)), [2, 4]);
        assert_eq!(recorded(|g| Ok(g.sum_all(x(g, &[2, 3])))), [0usize; 0]);
        assert_rejected(&[
            ("matmul: inner dims differ", "ShapeMismatch", |g| {
                g.matmul(x(g, &[3, 4]), x(g, &[5, 2]))
            }),
            ("batched_matmul: inner dims differ", "ShapeMismatch", |g| {
                g.batched_matmul(x(g, &[2, 3, 4]), x(g, &[2, 5, 2]))
            }),
            ("batched_matmul: batch dims differ", "ShapeMismatch", |g| {
                g.batched_matmul(x(g, &[2, 3, 4]), x(g, &[3, 4, 2]))
            }),
            ("batched_matmul(lhs^T): inner dims differ", "ShapeMismatch", |g| {
                g.batched_transpose_matmul(x(g, &[2, 4, 3]), x(g, &[2, 5, 2]))
            }),
            ("batched_matmul(lhs^T): batch dims differ", "ShapeMismatch", |g| {
                g.batched_transpose_matmul(x(g, &[2, 4, 3]), x(g, &[3, 4, 2]))
            }),
            ("sum_axis: axis out of range", "AxisOutOfRange", |g| g.sum_axis(x(g, &[2, 3]), 2)),
            ("mean_axis: axis out of range", "AxisOutOfRange", |g| g.mean_axis(x(g, &[2, 3]), 2)),
            ("info_nce_diag: non-square logits", "must be square", |g| {
                g.info_nce_diag(x(g, &[2, 3]))
            }),
        ]);
    }

    #[test]
    fn conv_rules_match_kernel_arithmetic() {
        let conv2d = |g: &Graph| {
            g.conv2d(x(g, &[1, 2, 4, 4]), x(g, &[3, 2, 3, 3]), Some(x(g, &[3])), (1, 1))
        };
        assert_eq!(recorded(conv2d), [1, 3, 4, 4]);
        // causal pad for k=2, dilation=2: L stays 8.
        let causal = Pad1d { left: 2, right: 0 };
        assert_eq!(
            recorded(|g| g.conv1d(x(g, &[2, 2, 8]), x(g, &[3, 2, 2]), None, causal, 2)),
            [2, 3, 8]
        );
        assert_rejected(&[
            ("conv2d: channel mismatch", "ShapeMismatch", |g| {
                g.conv2d(x(g, &[1, 2, 4, 4]), x(g, &[3, 5, 3, 3]), None, (1, 1))
            }),
            ("conv2d: bias mismatch", "conv2d bias", |g| {
                g.conv2d(x(g, &[1, 2, 4, 4]), x(g, &[3, 2, 3, 3]), Some(x(g, &[5])), (1, 1))
            }),
            ("conv2d: zero kernel", "kernel extent must be >= 1", |g| {
                g.conv2d(x(g, &[1, 2, 4, 4]), x(g, &[3, 2, 0, 3]), None, (1, 1))
            }),
            ("conv2d: kernel wider than the padded input", "exceeds padded extent", |g| {
                g.conv2d(x(g, &[1, 1, 2, 2]), x(g, &[1, 1, 7, 7]), None, (1, 1))
            }),
            ("conv1d: channel mismatch", "ShapeMismatch", |g| {
                g.conv1d(x(g, &[1, 2, 8]), x(g, &[3, 4, 3]), None, Pad1d::same(3), 1)
            }),
            ("conv1d: bias mismatch", "conv1d bias", |g| {
                g.conv1d(x(g, &[1, 2, 8]), x(g, &[3, 2, 3]), Some(x(g, &[2])), Pad1d::same(3), 1)
            }),
            ("conv1d: zero kernel", "kernel extent must be >= 1", |g| {
                g.conv1d(x(g, &[1, 2, 8]), x(g, &[3, 2, 0]), None, Pad1d::same(0), 1)
            }),
            ("conv1d: zero dilation", "dilation must be >= 1", |g| {
                g.conv1d(x(g, &[1, 2, 8]), x(g, &[3, 2, 2]), None, Pad1d { left: 1, right: 0 }, 0)
            }),
            ("conv1d: dilated span wider than the padded input", "exceeds padded extent", |g| {
                g.conv1d(x(g, &[1, 1, 4]), x(g, &[1, 1, 3]), None, Pad1d { left: 0, right: 1 }, 3)
            }),
        ]);
    }

    /// Through a view, a conv reads the operand the view describes and
    /// returns its input's shape; a view that does not tile the input, or a
    /// conv that would change the geometry, is rejected.
    #[test]
    fn view_conv_rules() {
        let same = |g: &Graph| {
            let view = Some(plane_view());
            g.conv2d_view(x(g, &[4, 3, 2, 5]), x(g, &[2, 2, 3, 3]), Some(x(g, &[2])), (1, 1), view)
        };
        assert_eq!(recorded(same), [4, 3, 2, 5]);
        assert_rejected(&[
            ("conv2d view: does not tile the input", "covers 120 elements", |g| {
                let view = Some(plane_view());
                let b = Some(x(g, &[2]));
                g.conv2d_view(x(g, &[4, 3, 2, 6]), x(g, &[2, 2, 3, 3]), b, (1, 1), view)
            }),
            ("conv2d view: changes the channel count", "through the same view", |g| {
                let view = Some(plane_view());
                let b = Some(x(g, &[3]));
                g.conv2d_view(x(g, &[4, 3, 2, 5]), x(g, &[3, 2, 3, 3]), b, (1, 1), view)
            }),
            ("conv2d view: shrinks the plane", "through the same view", |g| {
                let view = Some(plane_view());
                g.conv2d_view(x(g, &[4, 3, 2, 5]), x(g, &[2, 2, 3, 3]), None, (0, 0), view)
            }),
            ("conv1d view: more than one row", "one row", |g| {
                let view = Some(plane_view());
                g.conv1d_view(x(g, &[4, 3, 2, 5]), x(g, &[2, 2, 3]), None, Pad1d::same(3), 1, view)
            }),
        ]);
    }

    /// Geometry whose padded extent or dilated span overflows `usize` is a
    /// typed error at the op, not a wrapped (release) or panicking (debug)
    /// size. The operands are tiny: the kernel checks the arithmetic before
    /// it sizes any buffer.
    #[test]
    fn conv_rules_reject_overflowing_geometry() {
        assert_rejected(&[
            ("conv1d: dilated span overflows", "overflows usize", |g| {
                let half = usize::MAX / 2 + 1;
                g.conv1d(x(g, &[1, 1, 8]), x(g, &[1, 1, 3]), None, Pad1d::same(3), half)
            }),
            ("conv1d: padded extent overflows", "overflows usize", |g| {
                let pad = Pad1d { left: usize::MAX, right: 1 };
                g.conv1d(x(g, &[1, 1, 8]), x(g, &[1, 1, 3]), None, pad, 1)
            }),
            ("conv2d: padded extent overflows", "overflows usize", |g| {
                let half = usize::MAX / 2 + 1;
                g.conv2d(x(g, &[1, 1, 4, 4]), x(g, &[1, 1, 3, 3]), None, (half, 1))
            }),
        ]);
    }

    #[test]
    fn manip_rules() {
        assert_eq!(recorded(|g| g.permute(x(g, &[2, 3, 4]), &[2, 0, 1])), [4, 2, 3]);
        assert_eq!(recorded(|g| g.concat(&[x(g, &[2, 2]), x(g, &[2, 3])], 1)), [2, 5]);
        assert_eq!(recorded(|g| g.index_select(x(g, &[4, 2]), 0, &[0, 2, 0])), [3, 2]);
        assert_rejected(&[
            ("concat: ranks differ", "RankMismatch", |g| {
                g.concat(&[x(g, &[2, 2]), x(g, &[2, 2, 1])], 1)
            }),
            ("concat: non-axis dims differ", "ShapeMismatch", |g| {
                g.concat(&[x(g, &[2, 2]), x(g, &[2, 3])], 0)
            }),
            ("concat: axis out of range", "AxisOutOfRange", |g| {
                g.concat(&[x(g, &[2, 2]), x(g, &[2, 2])], 2)
            }),
            ("slice_axis: range past the end", "IndexOutOfRange", |g| {
                g.slice_axis(x(g, &[4, 2]), 0, 3, 2)
            }),
            ("slice_axis: axis out of range", "AxisOutOfRange", |g| {
                g.slice_axis(x(g, &[4, 2]), 2, 0, 1)
            }),
            ("index_select: index past the end", "IndexOutOfRange", |g| {
                g.index_select(x(g, &[4, 2]), 0, &[0, 4])
            }),
            ("index_select: axis out of range", "AxisOutOfRange", |g| {
                g.index_select(x(g, &[4, 2]), 2, &[0])
            }),
            ("permute: repeated axis", "invalid permutation", |g| {
                g.permute(x(g, &[2, 3, 4]), &[0, 0, 1])
            }),
            ("permute: wrong rank", "perm length", |g| g.permute(x(g, &[2, 3, 4]), &[1, 0])),
            ("reshape: element count changes", "LengthMismatch", |g| {
                g.reshape(x(g, &[2, 3]), &[5])
            }),
            ("transpose2d: rank 3", "RankMismatch", |g| g.transpose2d(x(g, &[2, 3, 4]))),
        ]);
    }

    #[test]
    fn spec_builder_inherits_requires_grad() {
        let mut spec = TapeSpec::new();
        let w = spec.leaf("w", &[2, 2]);
        let c = spec.constant(&[2, 2]);
        let m = spec.push(OpKind::Mul, &[w, c], &[2, 2]);
        let d = spec.push(OpKind::Square, &[c], &[2, 2]);
        assert!(spec.nodes[m].requires_grad);
        assert!(!spec.nodes[d].requires_grad);
    }
}
