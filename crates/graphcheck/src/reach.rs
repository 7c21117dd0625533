//! Gradient-flow reachability: does every registered parameter actually
//! receive a gradient from the loss?
//!
//! Two traversals from the loss node over the (reversed) tape:
//!
//! * **Grad-reachable** set — edges only cross where the backward sweep
//!   propagates: a non-input node that `requires_grad` hands gradient to each
//!   parent that itself `requires_grad`. A parameter leaf outside this set
//!   will *never* train, no matter how many epochs run — the classic detached
//!   subgraph bug (`constant` where `leaf` was meant, a fused branch that
//!   drops a term, an ablation flag left on).
//! * **Forward-reachable** set — all parent edges. Nodes outside it were
//!   computed but never used by the loss: dead compute (Error: every step
//!   pays for it, and the branch it belongs to was meant to reach the loss)
//!   or unused inputs (Info).

use std::collections::VecDeque;

use sthsl_autograd::TapeSpec;

use crate::chain::node_desc;
use crate::report::{Diagnostic, Pass, Severity};

/// Reachability facts handed to later passes and the report.
pub struct ReachInfo {
    /// Per-node: receives gradient during backward from `loss`.
    pub grad_reachable: Vec<bool>,
    /// Parameters (of those given) proven grad-reachable.
    pub reachable_params: usize,
}

/// Run the gradient-flow pass, appending findings to `diags`.
///
/// `params` are `(name, tape index)` pairs; `allow_unreachable` holds name
/// prefixes for parameters *expected* to be detached (ablated branches),
/// downgrading their finding from Error to Info.
pub fn analyze(
    spec: &TapeSpec,
    loss: usize,
    params: &[(String, usize)],
    allow_unreachable: &[String],
    diags: &mut Vec<Diagnostic>,
) -> ReachInfo {
    let n = spec.nodes.len();

    let shape = &spec.nodes[loss].shape;
    if shape.iter().product::<usize>() != 1 {
        diags.push(Diagnostic {
            pass: Pass::GradFlow,
            severity: Severity::Error,
            node: Some(loss),
            msg: format!(
                "loss %{loss} ({}) has shape {shape:?}; backward needs a scalar",
                node_desc(spec, loss)
            ),
        });
    }
    if !spec.nodes[loss].requires_grad {
        diags.push(Diagnostic {
            pass: Pass::GradFlow,
            severity: Severity::Error,
            node: Some(loss),
            msg: format!(
                "loss %{loss} ({}) does not require grad; no parameter can train",
                node_desc(spec, loss)
            ),
        });
    }

    // Grad-reachable: BFS over backward-propagation edges.
    let mut grad_reachable = vec![false; n];
    let mut queue = VecDeque::new();
    if spec.nodes[loss].requires_grad {
        grad_reachable[loss] = true;
        queue.push_back(loss);
    }
    while let Some(i) = queue.pop_front() {
        let node = &spec.nodes[i];
        if node.kind.is_input() {
            continue;
        }
        for &p in &node.parents {
            if spec.nodes[p].requires_grad && !grad_reachable[p] {
                grad_reachable[p] = true;
                queue.push_back(p);
            }
        }
    }

    let mut reachable_params = 0usize;
    for (name, idx) in params {
        if *idx >= n {
            diags.push(Diagnostic {
                pass: Pass::GradFlow,
                severity: Severity::Error,
                node: None,
                msg: format!(
                    "parameter \"{name}\" points at %{idx}, past the end of the \
                     {n}-node tape (stale Var?)"
                ),
            });
            continue;
        }
        if grad_reachable[*idx] {
            reachable_params += 1;
        } else if allow_unreachable.iter().any(|pre| name.starts_with(pre.as_str())) {
            diags.push(Diagnostic {
                pass: Pass::GradFlow,
                severity: Severity::Info,
                node: Some(*idx),
                msg: format!(
                    "parameter \"{name}\" (%{idx}) is detached from the loss \
                     (expected: matches an ablation allow-prefix)"
                ),
            });
        } else {
            diags.push(Diagnostic {
                pass: Pass::GradFlow,
                severity: Severity::Error,
                node: Some(*idx),
                msg: format!(
                    "parameter \"{name}\" (%{idx}) is not reachable from the loss; \
                     gradient will never flow into it"
                ),
            });
        }
    }

    // Forward-reachable: all parent edges, ignoring requires_grad.
    let mut forward = vec![false; n];
    forward[loss] = true;
    let mut stack = vec![loss];
    while let Some(i) = stack.pop() {
        for &p in &spec.nodes[i].parents {
            if !forward[p] {
                forward[p] = true;
                stack.push(p);
            }
        }
    }

    // Dead sinks: nodes nothing consumes and the loss never sees. Reporting
    // only the sinks (not every node above them) keeps one dead branch to
    // one diagnostic.
    let mut has_child = vec![false; n];
    for node in &spec.nodes {
        for &p in &node.parents {
            has_child[p] = true;
        }
    }
    for i in 0..n {
        if forward[i] || has_child[i] {
            continue;
        }
        if spec.nodes[i].kind.is_input() {
            diags.push(Diagnostic {
                pass: Pass::GradFlow,
                severity: Severity::Info,
                node: Some(i),
                msg: format!("input %{i} ({}) is never used", node_desc(spec, i)),
            });
        } else {
            diags.push(Diagnostic {
                pass: Pass::GradFlow,
                severity: Severity::Error,
                node: Some(i),
                msg: format!(
                    "dead subgraph: %{i} ({}) is computed but never reaches the loss",
                    node_desc(spec, i)
                ),
            });
        }
    }

    ReachInfo { grad_reachable, reachable_params }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sthsl_autograd::OpKind;

    #[test]
    fn detached_parameter_is_an_error() {
        let mut spec = TapeSpec::new();
        let w = spec.leaf("w", &[2]);
        let orphan = spec.leaf("orphan", &[2]);
        let s = spec.push(OpKind::Square, &[w], &[2]);
        let loss = spec.push(OpKind::SumAll, &[s], &[]);
        let params = vec![("w".to_string(), w), ("orphan".to_string(), orphan)];
        let mut diags = vec![];
        let info = analyze(&spec, loss, &params, &[], &mut diags);
        assert_eq!(info.reachable_params, 1);
        let err: Vec<_> = diags.iter().filter(|d| d.severity == Severity::Error).collect();
        assert_eq!(err.len(), 1);
        assert!(err[0].msg.contains("\"orphan\""));
        assert!(err[0].msg.contains("not reachable from the loss"));
    }

    #[test]
    fn allow_prefix_downgrades_to_info() {
        let mut spec = TapeSpec::new();
        let w = spec.leaf("infomax.w", &[2]);
        let used = spec.leaf("u", &[2]);
        let s = spec.push(OpKind::Square, &[used], &[2]);
        let loss = spec.push(OpKind::SumAll, &[s], &[]);
        let params = vec![("infomax.w".to_string(), w)];
        let mut diags = vec![];
        analyze(&spec, loss, &params, &["infomax.".to_string()], &mut diags);
        assert!(diags.iter().all(|d| d.severity != Severity::Error));
        assert!(diags
            .iter()
            .any(|d| d.severity == Severity::Info && d.msg.contains("ablation allow-prefix")));
    }

    #[test]
    fn dead_subgraph_warns_at_the_sink_only() {
        let mut spec = TapeSpec::new();
        let w = spec.leaf("w", &[2]);
        let s = spec.push(OpKind::Square, &[w], &[2]);
        let loss = spec.push(OpKind::SumAll, &[s], &[]);
        // Dead branch: two chained ops off `w` that never reach the loss.
        let d1 = spec.push(OpKind::Tanh, &[w], &[2]);
        let d2 = spec.push(OpKind::Exp, &[d1], &[2]);
        let params = vec![("w".to_string(), w)];
        let mut diags = vec![];
        analyze(&spec, loss, &params, &[], &mut diags);
        let dead: Vec<_> = diags.iter().filter(|d| d.msg.contains("dead subgraph")).collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].severity, Severity::Error);
        assert_eq!(dead[0].node, Some(d2));
    }

    #[test]
    fn non_scalar_loss_is_an_error() {
        let mut spec = TapeSpec::new();
        let w = spec.leaf("w", &[2, 3]);
        let loss = spec.push(OpKind::Square, &[w], &[2, 3]);
        let mut diags = vec![];
        analyze(&spec, loss, &[], &[], &mut diags);
        assert!(diags
            .iter()
            .any(|d| d.severity == Severity::Error && d.msg.contains("backward needs a scalar")));
    }
}
