//! Ahead-of-time shape inference over a [`TapeSpec`].
//!
//! Walks the tape once in topological order, recomputing every op's output
//! shape from its parents via [`sthsl_autograd::OpKind::infer_shape`] — the
//! same rules the runtime cross-checks in debug builds. Two findings come
//! out of this pass, both errors:
//!
//! * an op the runtime would reject (mismatched matmul, bad concat, kernel
//!   larger than its padded input, …), reported with the producer chain of
//!   the offending node;
//! * an inferred shape that disagrees with the recorded runtime shape (an
//!   inference-rule bug or a tape corrupted in transit).

use sthsl_autograd::TapeSpec;

use crate::chain::{node_desc, producer_chain};
use crate::report::{Diagnostic, Pass, Severity};

/// Resolved shapes for every node plus inference statistics.
pub struct ShapeInfo {
    /// Best-known shape per node: inferred when possible, otherwise the
    /// recorded runtime shape, otherwise `None`.
    pub shapes: Vec<Option<Vec<usize>>>,
    /// How many node shapes are statically known: inputs with declared
    /// shapes plus ops inferred purely ahead of time.
    pub inferred: usize,
}

/// Run the shape pass, appending findings to `diags`.
pub fn analyze(spec: &TapeSpec, diags: &mut Vec<Diagnostic>) -> ShapeInfo {
    let n = spec.nodes.len();
    let mut shapes: Vec<Option<Vec<usize>>> = Vec::with_capacity(n);
    let mut inferred = 0usize;

    for (i, node) in spec.nodes.iter().enumerate() {
        if node.kind.is_input() {
            if node.runtime_shape.is_none() {
                diags.push(Diagnostic {
                    pass: Pass::Shape,
                    severity: Severity::Error,
                    node: Some(i),
                    msg: format!(
                        "input node %{i} ({}) carries no shape; \
                         inputs must declare their shape",
                        node_desc(spec, i)
                    ),
                });
            }
            if node.runtime_shape.is_some() {
                inferred += 1;
            }
            shapes.push(node.runtime_shape.clone());
            continue;
        }

        // Opaque ops and ops below a node with unknown shape cannot be
        // inferred; fall back to the runtime shape without cascading errors.
        let parent_shapes: Option<Vec<Vec<usize>>> =
            node.parents.iter().map(|&p| shapes[p].clone()).collect();
        let Some(parent_shapes) = parent_shapes else {
            shapes.push(node.runtime_shape.clone());
            continue;
        };

        match node.kind.infer_shape(&parent_shapes) {
            Ok(Some(shape)) => {
                inferred += 1;
                if let Some(rt) = &node.runtime_shape {
                    if *rt != shape {
                        diags.push(Diagnostic {
                            pass: Pass::Shape,
                            severity: Severity::Error,
                            node: Some(i),
                            msg: format!(
                                "inferred shape {shape:?} disagrees with runtime shape {rt:?}; \
                                 chain: {}",
                                producer_chain(spec, i)
                            ),
                        });
                    }
                }
                shapes.push(Some(shape));
            }
            Ok(None) => {
                // Opaque escape hatch: trust the runtime shape if present.
                shapes.push(node.runtime_shape.clone());
            }
            Err(msg) => {
                diags.push(Diagnostic {
                    pass: Pass::Shape,
                    severity: Severity::Error,
                    node: Some(i),
                    msg: format!("{msg}; chain: {}", producer_chain(spec, i)),
                });
                // Fall back to the runtime shape so one bad op does not
                // cascade into a diagnostic per downstream node.
                shapes.push(node.runtime_shape.clone());
            }
        }
    }

    ShapeInfo { shapes, inferred }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sthsl_autograd::OpKind;

    #[test]
    fn infers_through_a_clean_chain() {
        let mut spec = TapeSpec::new();
        let w = spec.leaf("w", &[3, 4]);
        let x = spec.constant(&[4, 2]);
        let m = spec.push(OpKind::Matmul, &[w, x]);
        let _s = spec.push(OpKind::SumAll, &[m]);
        let mut diags = vec![];
        let info = analyze(&spec, &mut diags);
        assert!(diags.is_empty());
        assert_eq!(info.inferred, 4); // 2 inputs with declared shapes + 2 ops
        assert_eq!(info.shapes[m], Some(vec![3, 2]));
    }

    #[test]
    fn rejects_mismatched_matmul_with_chain() {
        let mut spec = TapeSpec::new();
        let w = spec.leaf("w", &[3, 4]);
        let x = spec.constant(&[5, 2]);
        let m = spec.push(OpKind::Matmul, &[w, x]);
        let mut diags = vec![];
        let info = analyze(&spec, &mut diags);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Error);
        assert_eq!(diags[0].node, Some(m));
        assert!(diags[0].msg.contains("matmul"));
        assert!(diags[0].msg.contains("chain:"));
        // Fallback keeps downstream quiet: no runtime shape, so unknown.
        assert_eq!(info.shapes[m], None);
    }

    #[test]
    fn flags_inference_runtime_disagreement() {
        let mut spec = TapeSpec::new();
        let w = spec.leaf("w", &[2, 2]);
        let s = spec.push(OpKind::Square, &[w]);
        spec.nodes[s].runtime_shape = Some(vec![4]);
        let mut diags = vec![];
        analyze(&spec, &mut diags);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].msg.contains("disagrees with runtime shape"));
    }
}
