//! Float-error accumulation-depth analysis.
//!
//! An `n`-term sequential f32 sum carries a worst-case relative error of
//! `≈ n · ε_f32` (`ε_f32 ≈ 1.19e-7`), so a single op that folds 100 000
//! elements through one f32 accumulator can lose ~3 decimal digits — exactly
//! the masked-metric aggregation bug class fixed in the observability PR.
//! This pass computes, per op, its *own* sequential accumulation length (the
//! longest run of dependent f32 adds inside one output element, after any
//! fixed-block reassociation is credited) and the *cumulative* depth along
//! the deepest producer path, then flags any single op whose own chain
//! exceeds the [`crate::MAX_ACCUM_DEPTH`] budget.
//!
//! The budget is `2 ·` [`sthsl_parallel::REDUCE_BLOCK`] (8192): the
//! full reductions in this workspace reassociate through 4096-element blocks
//! (dependent chain `block + ceil(n/block)`, under two blocks for any
//! realistic tensor), so any kernel that exceeds the budget is accumulating
//! naively and should either reassociate in fixed blocks or widen its
//! accumulator to f64.

use sthsl_autograd::{OpKind, TapeSpec};

use crate::chain::producer_chain;
use crate::report::{Diagnostic, Pass, Severity};

/// Block length credited to fixed-block-reassociated full reductions.
pub const REASSOC_BLOCK: u64 = sthsl_parallel::REDUCE_BLOCK as u64;

/// Per-tape result of the float-error pass.
#[derive(Debug, Clone, Default)]
pub struct FloatErrorSummary {
    /// Per-node own sequential accumulation length (1 for elementwise
    /// arithmetic, 0 for data movement and inputs).
    pub own: Vec<u64>,
    /// Per-node cumulative depth along the deepest producer path.
    pub depth: Vec<u64>,
    /// Deepest single-op chain and the node carrying it.
    pub max_own: u64,
    pub max_own_node: Option<usize>,
    /// Cumulative depth at the loss node — the worst-case ulp multiplier a
    /// single input perturbation can pick up on its way to the loss.
    pub loss_depth: u64,
    /// The budget the pass was run with.
    pub limit: u64,
}

/// Own sequential accumulation length of every node. Shared with the range
/// pass, which widens each interval by `(own + 8) · ε_f32` to stay sound
/// over f32 execution.
pub fn own_extents(spec: &TapeSpec, shapes: &[Option<Vec<usize>>]) -> Vec<u64> {
    (0..spec.nodes.len()).map(|i| own_extent(spec, shapes, i)).collect()
}

fn own_extent(spec: &TapeSpec, shapes: &[Option<Vec<usize>>], i: usize) -> u64 {
    let node = &spec.nodes[i];
    let parent_shape = |k: usize| -> Option<&Vec<usize>> {
        node.parents.get(k).and_then(|&x| shapes.get(x)).and_then(|s| s.as_ref())
    };
    let parent_numel =
        |k: usize| -> Option<u64> { parent_shape(k).map(|s| s.iter().product::<usize>() as u64) };
    match &node.kind {
        OpKind::Leaf
        | OpKind::Constant
        | OpKind::Reshape { .. }
        | OpKind::Permute { .. }
        | OpKind::Concat { .. }
        | OpKind::SliceAxis { .. }
        | OpKind::PadAxis { .. }
        | OpKind::IndexSelect { .. }
        | OpKind::Transpose2d => 0,
        // One rounding step per element; transcendentals are correctly
        // rounded to within a few ulp, folded into the same unit cost.
        OpKind::Add
        | OpKind::Sub
        | OpKind::Mul
        | OpKind::Div
        | OpKind::Scale { .. }
        | OpKind::AddScalar { .. }
        | OpKind::Square
        | OpKind::LeakyRelu { .. }
        | OpKind::Sigmoid
        | OpKind::Tanh
        | OpKind::Exp
        | OpKind::LnEps { .. }
        | OpKind::SqrtEps { .. }
        | OpKind::Softplus
        | OpKind::Dropout { .. } => 1,
        // k dependent multiply-adds per output element.
        OpKind::Matmul => parent_shape(0).and_then(|s| s.last().copied()).unwrap_or(1) as u64,
        OpKind::BatchedMatmul => {
            parent_shape(0).and_then(|s| s.get(2).copied()).unwrap_or(1) as u64
        }
        // cin * kh * kw products (+ bias) into one output element.
        OpKind::Conv2d { has_bias, .. } | OpKind::Conv1d { has_bias, .. } => {
            let footprint =
                parent_shape(1).map_or(1, |w| w.iter().skip(1).product::<usize>() as u64);
            footprint + u64::from(*has_bias)
        }
        // Full reductions run through blocked_sum_f32: ceil(n / B) block
        // partials of <= B sequential adds each, combined in block order.
        OpKind::SumAll | OpKind::MeanAll => {
            let n = parent_numel(0).unwrap_or(1);
            if n > REASSOC_BLOCK {
                REASSOC_BLOCK + n.div_ceil(REASSOC_BLOCK)
            } else {
                n
            }
        }
        // Axis reductions and softmax accumulate the axis extent per output.
        OpKind::SumAxis { axis } | OpKind::MeanAxis { axis } => {
            parent_shape(0).and_then(|s| s.get(*axis).copied()).unwrap_or(1) as u64
        }
        OpKind::SoftmaxLastdim | OpKind::LogSoftmaxLastdim => {
            parent_shape(0).and_then(|s| s.last().copied()).unwrap_or(1) as u64
        }
        // Per row: an n-term logsumexp plus the n-row mean (f64 accumulator
        // in the kernel, but audited at the f32 contract).
        OpKind::InfoNceDiag => {
            2 * parent_shape(0).and_then(|s| s.first().copied()).unwrap_or(1) as u64
        }
        OpKind::Opaque { .. } => 0,
    }
}

/// Run the float-error pass: cumulative depths plus the deep-chain check.
pub fn analyze(
    spec: &TapeSpec,
    own: &[u64],
    loss: usize,
    max_accum_depth: u64,
    diags: &mut Vec<Diagnostic>,
) -> FloatErrorSummary {
    let n = spec.nodes.len();
    let mut depth = vec![0u64; n];
    let mut max_own = 0u64;
    let mut max_own_node = None;
    for i in 0..n {
        let node = &spec.nodes[i];
        let inherited =
            node.parents.iter().filter_map(|&p| depth.get(p).copied()).max().unwrap_or(0);
        depth[i] = inherited.saturating_add(own[i]);
        if own[i] > max_own {
            max_own = own[i];
            max_own_node = Some(i);
        }
        if own[i] > max_accum_depth {
            diags.push(Diagnostic {
                pass: Pass::FloatError,
                severity: Severity::Warning,
                node: Some(i),
                msg: format!(
                    "{}: f32 accumulation chain of {} sequential adds exceeds max-accum-depth \
                     {max_accum_depth} (worst case ~{} ulp relative error in one output) — \
                     reassociate in fixed blocks or widen the accumulator to f64; chain: {}",
                    node.kind.name(),
                    own[i],
                    own[i],
                    producer_chain(spec, i)
                ),
            });
        }
    }
    let loss_depth = depth.get(loss).copied().unwrap_or(0);
    FloatErrorSummary {
        own: own.to_vec(),
        depth,
        max_own,
        max_own_node,
        loss_depth,
        limit: max_accum_depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shapes_of(spec: &TapeSpec) -> Vec<Option<Vec<usize>>> {
        let mut diags = vec![];
        let shapes = crate::shape::analyze(spec, &mut diags).shapes;
        assert!(diags.is_empty(), "{diags:?}");
        shapes
    }

    #[test]
    fn blocked_full_reduce_is_credited_the_block_tree() {
        let mut spec = TapeSpec::new();
        let w = spec.leaf("w", &[100_000]);
        let s = spec.push(OpKind::SumAll, &[w]);
        let shapes = shapes_of(&spec);
        let own = own_extents(&spec, &shapes);
        // 4096-element blocks + ceil(100000/4096) = 25 block combines.
        assert_eq!(own[s], 4096 + 25);
        let mut diags = vec![];
        let info = analyze(&spec, &own, s, crate::MAX_ACCUM_DEPTH, &mut diags);
        assert!(diags.is_empty(), "blocked reduce fits the budget: {diags:?}");
        assert_eq!(info.loss_depth, 4096 + 25);
    }

    #[test]
    fn naive_axis_reduce_over_a_long_axis_is_flagged() {
        let mut spec = TapeSpec::new();
        let w = spec.leaf("w", &[2, 100_000]);
        let s = spec.push(OpKind::SumAxis { axis: 1 }, &[w]);
        let loss = spec.push(OpKind::SumAll, &[s]);
        let shapes = shapes_of(&spec);
        let own = own_extents(&spec, &shapes);
        let mut diags = vec![];
        let info = analyze(&spec, &own, loss, 4096, &mut diags);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert_eq!(diags[0].node, Some(s));
        assert!(diags[0].msg.contains("100000 sequential adds"), "{}", diags[0].msg);
        assert_eq!(info.max_own_node, Some(s));
    }

    #[test]
    fn depth_accumulates_along_the_deepest_path() {
        let mut spec = TapeSpec::new();
        let a = spec.leaf("a", &[4, 8]);
        let b = spec.leaf("b", &[8, 4]);
        let mm = spec.push(OpKind::Matmul, &[a, b]); // own 8
        let sq = spec.push(OpKind::Square, &[mm]); // own 1
        let loss = spec.push(OpKind::SumAll, &[sq]); // own 16
        let shapes = shapes_of(&spec);
        let own = own_extents(&spec, &shapes);
        let mut diags = vec![];
        let info = analyze(&spec, &own, loss, 4096, &mut diags);
        assert_eq!(info.depth[mm], 8);
        assert_eq!(info.depth[sq], 9);
        assert_eq!(info.loss_depth, 9 + 16);
    }
}
