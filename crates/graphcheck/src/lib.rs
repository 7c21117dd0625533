//! `sthsl-graphcheck`: a static analyzer over the autograd tape.
//!
//! ST-HSL's loss is a three-way composite (prediction + hypergraph infomax +
//! cross-view contrastive), so a wiring mistake — a detached encoder branch,
//! a branch computed but never added to the loss, a `log`/`div` fed a
//! non-positive intermediate — trains without erroring and only shows up as
//! degraded metrics. This crate audits the graph a model *actually builds*
//! before the first optimizer step, without executing forward or backward:
//!
//! 1. **structure** — tape well-formedness: topological parent order, a
//!    valid loss index.
//! 2. **grad-flow** ([`reach`]) — every registered parameter must be
//!    reachable from the loss, and every computed op must reach it;
//!    detached parameters and dead subgraphs are flagged.
//! 3. **ranges** ([`range`]) — interval-domain abstract interpretation
//!    seeded from declared input ranges: proves absence of overflow/NaN and
//!    reports poles (`ln(≤0)`, `/0`, `sqrt(<0)`) an interval cannot exclude,
//!    cross-checked against the observed runtime ranges stamped on the tape.
//! 4. **cost** ([`cost`]) — static FLOP/bytes/intensity model with a ranked
//!    hot-op table and the tape's total output bytes (advisory;
//!    cross-validated against the runtime profiler).
//!
//! Shapes are not re-derived: the tensor kernels compute every output shape
//! and reject malformed operands before a node is recorded, and each node of
//! the exported tape carries the shape its kernel produced. The passes read
//! those shapes.
//!
//! The entry point is [`audit`]; [`AuditReport::has_errors`] decides whether
//! a trainer pre-flight must fail. A finding is either an Error (the graph
//! is wired wrong, and the pre-flight fails) or an Info (an expected
//! condition, such as a parameter an ablation detaches); the cost model
//! never diagnoses. Bit-identity across thread counts is not a static
//! pass: the runtime suites in `tests/parallel_equivalence.rs` gate it.

pub mod chain;
pub mod cost;
pub mod range;
pub mod reach;
pub mod report;

use sthsl_autograd::TapeSpec;

pub use report::{AuditReport, Diagnostic, Pass, Severity, REPORT_VERSION};

/// Knobs for one audit run.
#[derive(Debug, Clone, Default)]
pub struct AuditOptions {
    /// Name prefixes of parameters *expected* to be detached from the loss
    /// (ablated branches). Their grad-flow finding is downgraded from Error
    /// to Info.
    pub allow_unreachable: Vec<String>,
}

/// Statically audit one model graph.
///
/// * `model` — display name for the report header.
/// * `spec` — the exported tape ([`sthsl_autograd::Graph::export_tape`]) or a
///   hand-built fixture.
/// * `loss` — tape index of the loss node backward would start from.
/// * `params` — `(name, tape index)` of every registered parameter.
///
/// Structural corruption (out-of-order parents, out-of-range loss) aborts
/// the remaining passes — their invariants don't hold on a malformed tape —
/// and returns a report carrying only the structure errors.
pub fn audit(
    model: &str,
    spec: &TapeSpec,
    loss: usize,
    params: &[(String, usize)],
    opts: &AuditOptions,
) -> AuditReport {
    let mut diags: Vec<Diagnostic> = Vec::new();
    let structurally_sound = validate_structure(spec, loss, &mut diags);

    if !structurally_sound {
        return AuditReport {
            model: model.to_string(),
            node_count: spec.nodes.len(),
            param_count: params.len(),
            reachable_params: 0,
            diagnostics: diags,
            ranges: None,
            cost: None,
        };
    }

    let reach_info = reach::analyze(spec, loss, params, &opts.allow_unreachable, &mut diags);
    let ranges = range::analyze(spec, &mut diags);
    let cost = cost::analyze(spec);

    AuditReport {
        model: model.to_string(),
        node_count: spec.nodes.len(),
        param_count: params.len(),
        reachable_params: reach_info.reachable_params,
        diagnostics: diags,
        ranges: Some(ranges),
        cost: Some(cost),
    }
}

/// Tape invariants every later pass depends on: parents strictly precede
/// children, and the loss index is on the tape. Returns false on violation.
fn validate_structure(spec: &TapeSpec, loss: usize, diags: &mut Vec<Diagnostic>) -> bool {
    let n = spec.nodes.len();
    let mut ok = true;
    if loss >= n {
        diags.push(Diagnostic {
            pass: Pass::Structure,
            severity: Severity::Error,
            node: None,
            msg: format!("loss %{loss} is past the end of the {n}-node tape (stale Var?)"),
        });
        ok = false;
    }
    for (i, node) in spec.nodes.iter().enumerate() {
        if let Some(&bad) = node.parents.iter().find(|&&p| p >= i) {
            diags.push(Diagnostic {
                pass: Pass::Structure,
                severity: Severity::Error,
                node: Some(i),
                msg: format!(
                    "node %{i} ({}) lists parent %{bad} at or after itself; \
                     the tape is not in topological order",
                    node.kind.name()
                ),
            });
            ok = false;
        }
        if node.kind.is_input() && !node.parents.is_empty() {
            diags.push(Diagnostic {
                pass: Pass::Structure,
                severity: Severity::Error,
                node: Some(i),
                msg: format!(
                    "input node %{i} ({}) has {} parent(s); inputs take none",
                    node.kind.name(),
                    node.parents.len()
                ),
            });
            ok = false;
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use sthsl_autograd::OpKind;

    #[test]
    fn clean_graph_audits_clean() {
        let mut spec = TapeSpec::new();
        let w = spec.leaf("w", &[3, 4]);
        let x = spec.constant(&[4, 2]);
        let m = spec.push(OpKind::Matmul, &[w, x], &[3, 2]);
        let loss = spec.push(OpKind::SumAll, &[m], &[]);
        let params = vec![("w".to_string(), w)];
        let r = audit("toy", &spec, loss, &params, &AuditOptions::default());
        assert!(!r.has_errors(), "unexpected findings: {:?}", r.diagnostics);
        assert_eq!(r.reachable_params, 1);
        assert!(r.render().contains("grad-flow: OK (1/1 parameters reachable from the loss)"));
    }

    #[test]
    fn malformed_tape_short_circuits() {
        let mut spec = TapeSpec::new();
        let w = spec.leaf("w", &[2]);
        let s = spec.push(OpKind::Square, &[w], &[2]);
        spec.nodes[s].parents = vec![s]; // self-loop
        let r = audit("bad", &spec, s, &[], &AuditOptions::default());
        assert!(r.has_errors());
        assert!(r.diagnostics.iter().all(|d| d.pass == Pass::Structure));
        assert!(r.diagnostics[0].msg.contains("not in topological order"));
    }

    #[test]
    fn stale_loss_var_is_a_structure_error() {
        let mut spec = TapeSpec::new();
        let _w = spec.leaf("w", &[2]);
        let r = audit("stale", &spec, 99, &[], &AuditOptions::default());
        assert!(r.has_errors());
        assert!(r.diagnostics[0].msg.contains("stale Var"));
    }
}
