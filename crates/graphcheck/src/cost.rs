//! Static cost model: per-op FLOP, bytes-moved, and arithmetic-intensity
//! estimates from shapes alone, aggregated per op family and ranked into a
//! hot-op list.
//!
//! The model is deliberately simple and deterministic — counts are pure
//! functions of the tape's shapes, so the table is reproducible anywhere and
//! can be pinned in goldens. Conventions:
//!
//! * a fused multiply-add counts as 2 flops (matmul `[m,k]·[k,n]` = `2mkn`);
//! * transcendental elementwise ops are charged a flat 4 flops/element,
//!   softmax-family 8 (max-scan, shift, exp, sum, divide);
//! * output bytes are `4 · numel(out)` — the same figure the runtime
//!   profiler reports per op, which is what makes static-vs-measured rank
//!   cross-validation meaningful; traffic adds the operand reads;
//! * backward cost is estimated at `2×` forward for gradient-reachable ops
//!   (each op's backward reads the incoming cotangent and touches each
//!   operand once) and 0 for data movement and constants.
//!
//! The pass is advisory: it emits no diagnostics, only the tape's total
//! output bytes and the ranked table the report renders and
//! `sthsl graph-audit --cost` prints in full.

use std::collections::BTreeMap;

use sthsl_autograd::{OpKind, TapeSpec};

/// Aggregated cost of one op family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostRow {
    pub count: usize,
    pub fwd_flops: u128,
    pub bwd_flops: u128,
    /// Output bytes written, `4 · numel` per node — profiler-comparable.
    pub out_bytes: u128,
    /// Operand reads + output writes.
    pub traffic_bytes: u128,
}

impl CostRow {
    pub fn total_flops(&self) -> u128 {
        self.fwd_flops + self.bwd_flops
    }

    /// Arithmetic intensity in hundredths of a flop per byte (integer
    /// fixed-point keeps the report rendering bit-stable).
    pub fn intensity_hundredths(&self) -> Option<u128> {
        (self.traffic_bytes > 0).then(|| self.total_flops() * 100 / self.traffic_bytes)
    }
}

/// Per-tape result of the cost pass.
#[derive(Debug, Clone, Default)]
pub struct CostSummary {
    /// Aggregated per op-family (keyed by [`OpKind::name`]).
    pub per_family: BTreeMap<&'static str, CostRow>,
    pub total_fwd_flops: u128,
    pub total_bwd_flops: u128,
    pub total_out_bytes: u128,
    pub total_traffic_bytes: u128,
}

impl CostSummary {
    /// Families ranked hottest-first by total flops; ties broken by output
    /// bytes (descending) then name so the order is fully deterministic.
    pub fn ranked(&self) -> Vec<(&'static str, CostRow)> {
        let mut rows: Vec<_> = self.per_family.iter().map(|(&k, &v)| (k, v)).collect();
        rows.sort_by(|a, b| {
            b.1.total_flops()
                .cmp(&a.1.total_flops())
                .then(b.1.out_bytes.cmp(&a.1.out_bytes))
                .then(a.0.cmp(b.0))
        });
        rows
    }

    /// Families ranked by output bytes written — the column the runtime
    /// profiler measures exactly, used for rank cross-validation.
    pub fn ranked_by_out_bytes(&self) -> Vec<(&'static str, CostRow)> {
        let mut rows: Vec<_> = self.per_family.iter().map(|(&k, &v)| (k, v)).collect();
        rows.sort_by(|a, b| b.1.out_bytes.cmp(&a.1.out_bytes).then(a.0.cmp(b.0)));
        rows
    }

    pub fn total_flops(&self) -> u128 {
        self.total_fwd_flops + self.total_bwd_flops
    }
}

/// Run the cost pass.
pub fn analyze(spec: &TapeSpec) -> CostSummary {
    let mut summary = CostSummary::default();
    for (i, node) in spec.nodes.iter().enumerate() {
        let out_numel = numel(&node.shape);
        let fwd = fwd_flops(spec, i, out_numel);
        let bwd = if node.requires_grad && fwd > 0 { 2 * fwd } else { 0 };
        let out_bytes = 4 * out_numel;
        let in_bytes: u128 = node.parents.iter().map(|&p| 4 * numel(&spec.nodes[p].shape)).sum();
        let traffic = out_bytes + in_bytes;

        let row = summary.per_family.entry(node.kind.name()).or_default();
        row.count += 1;
        row.fwd_flops += fwd;
        row.bwd_flops += bwd;
        row.out_bytes += out_bytes;
        row.traffic_bytes += traffic;
        summary.total_fwd_flops += fwd;
        summary.total_bwd_flops += bwd;
        summary.total_out_bytes += out_bytes;
        summary.total_traffic_bytes += traffic;
    }
    summary
}

fn numel(shape: &[usize]) -> u128 {
    shape.iter().map(|&d| d as u128).product()
}

fn fwd_flops(spec: &TapeSpec, i: usize, out_numel: u128) -> u128 {
    let node = &spec.nodes[i];
    let parent_shape = |k: usize| node.parents.get(k).map(|&x| spec.nodes[x].shape.as_slice());
    let parent_numel = |k: usize| parent_shape(k).map_or(0, numel);
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
        OpKind::Add
        | OpKind::Sub
        | OpKind::Mul
        | OpKind::Div
        | OpKind::Scale { .. }
        | OpKind::AddScalar { .. }
        | OpKind::Square
        | OpKind::LeakyRelu { .. }
        | OpKind::Dropout { .. } => out_numel,
        OpKind::Sigmoid
        | OpKind::Tanh
        | OpKind::Exp
        | OpKind::LnEps { .. }
        | OpKind::SqrtEps { .. }
        | OpKind::Softplus => 4 * out_numel,
        OpKind::Matmul => {
            let k = parent_shape(0).and_then(|s| s.last().copied()).unwrap_or(0) as u128;
            2 * out_numel * k
        }
        OpKind::BatchedMatmul { lhs_transposed } => {
            let axis = if *lhs_transposed { 1 } else { 2 };
            let k = parent_shape(0).and_then(|s| s.get(axis).copied()).unwrap_or(0) as u128;
            2 * out_numel * k
        }
        OpKind::Conv2d { has_bias, .. } | OpKind::Conv1d { has_bias, .. } => {
            let footprint =
                parent_shape(1).map_or(0, |w| w.iter().skip(1).product::<usize>() as u128);
            2 * out_numel * footprint + u128::from(*has_bias) * out_numel
        }
        OpKind::SumAll | OpKind::MeanAll | OpKind::SumAxis { .. } | OpKind::MeanAxis { .. } => {
            parent_numel(0)
        }
        OpKind::SoftmaxLastdim | OpKind::LogSoftmaxLastdim => 8 * out_numel,
        OpKind::InfoNceDiag => 8 * parent_numel(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_dominates_a_mixed_tape() {
        let mut spec = TapeSpec::new();
        let a = spec.leaf("a", &[64, 128]);
        let b = spec.leaf("b", &[128, 32]);
        let mm = spec.push(OpKind::Matmul, &[a, b], &[64, 32]);
        let act = spec.push(OpKind::Tanh, &[mm], &[64, 32]);
        let _loss = spec.push(OpKind::MeanAll, &[act], &[]);
        let cost = analyze(&spec);
        let ranked = cost.ranked();
        assert_eq!(ranked[0].0, "matmul");
        assert_eq!(ranked[0].1.fwd_flops, 2 * 64 * 128 * 32);
        assert_eq!(ranked[0].1.bwd_flops, 2 * ranked[0].1.fwd_flops);
        assert_eq!(ranked[0].1.out_bytes, 4 * 64 * 32);
    }

    #[test]
    fn out_bytes_sum_every_value() {
        // leaf [4] -> square [4] -> sum_all [].
        let mut spec = TapeSpec::new();
        let w = spec.leaf("w", &[4]);
        let s = spec.push(OpKind::Square, &[w], &[4]);
        let _loss = spec.push(OpKind::SumAll, &[s], &[]);
        let cost = analyze(&spec);
        // 16 (leaf) + 16 (square) + 4 (scalar; len 1 despite rank 0).
        assert_eq!(cost.total_out_bytes, 16 + 16 + 4);
        assert_eq!(cost.per_family["leaf"].out_bytes, 16);
        assert_eq!(cost.per_family["sum_all"].out_bytes, 4);
    }

    #[test]
    fn ranking_is_deterministic_on_ties() {
        let mut spec = TapeSpec::new();
        let a = spec.leaf("a", &[8, 8]);
        // Two distinct zero-flop data movements with identical bytes.
        let t = spec.push(OpKind::Transpose2d, &[a], &[8, 8]);
        let r = spec.push(OpKind::Reshape { shape: vec![64] }, &[t], &[64]);
        let _loss = spec.push(OpKind::SumAll, &[r], &[]);
        let cost = analyze(&spec);
        let ranked = cost.ranked();
        let names: Vec<_> = ranked.iter().map(|r| r.0).collect();
        let pos_r = names.iter().position(|&n| n == "reshape").unwrap();
        let pos_t = names.iter().position(|&n| n == "transpose2d").unwrap();
        assert!(pos_r < pos_t, "equal-cost families must rank by name: {names:?}");
    }
}
