//! Producer-chain rendering: `%12 = div <- %11 = sum_axis(axis=1) <- %3 =
//! leaf "w"`. Diagnostics anchor on a tape index, but the chain is what lets
//! a reader locate the op in model code without file/line information.

use sthsl_autograd::TapeSpec;

/// Maximum chain hops rendered before eliding with `...`.
const MAX_DEPTH: usize = 6;

/// Render `%i = op` followed by its first-parent ancestry, newest first.
///
/// Following `parents[0]` gives the "data spine" of most ops (the second
/// operand of binary ops is usually a weight or constant) and keeps the
/// message single-line and bounded.
pub fn producer_chain(spec: &TapeSpec, start: usize) -> String {
    let mut parts = Vec::new();
    let mut cur = start;
    for hop in 0..MAX_DEPTH {
        parts.push(format!("%{cur} = {}", node_desc(spec, cur)));
        match spec.nodes[cur].parents.first() {
            Some(&p) => {
                if hop + 1 == MAX_DEPTH {
                    parts.push("...".to_string());
                }
                cur = p;
            }
            None => break,
        }
    }
    parts.join(" <- ")
}

/// `leaf "w"` for labelled inputs, `sum_axis(axis=1)` for ops.
pub fn node_desc(spec: &TapeSpec, i: usize) -> String {
    let node = &spec.nodes[i];
    node.label
        .as_ref()
        .map_or_else(|| node.kind.display(), |l| format!("{} \"{l}\"", node.kind.name()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sthsl_autograd::OpKind;

    #[test]
    fn chain_follows_first_parent_and_names_leaves() {
        let mut spec = TapeSpec::new();
        let w = spec.leaf("w", &[2, 2]);
        let c = spec.constant(&[2, 2]);
        let m = spec.push(OpKind::Mul, &[w, c], &[2, 2]);
        let s = spec.push(OpKind::SumAxis { axis: 1 }, &[m], &[2]);
        let chain = producer_chain(&spec, s);
        assert_eq!(chain, format!("%{s} = sum_axis(axis=1) <- %{m} = mul <- %{w} = leaf \"w\""));
    }

    #[test]
    fn deep_chains_are_elided() {
        let mut spec = TapeSpec::new();
        let mut cur = spec.leaf("w", &[2]);
        for _ in 0..10 {
            cur = spec.push(OpKind::Square, &[cur], &[2]);
        }
        let chain = producer_chain(&spec, cur);
        assert!(chain.contains("..."));
        assert_eq!(chain.matches(" <- ").count(), MAX_DEPTH);
    }
}
