//! Deliberately broken graphs, one per hazard class the analyzer must catch.
//! Each test asserts the *exact* diagnostic shape: severity, pass, anchored
//! node, and the `%idx` Var-chain text — the contract the trainer pre-flight
//! and `--graph-audit` output rely on.

use sthsl_autograd::{OpKind, TapeSpec};
use sthsl_graphcheck::{audit, AuditOptions, Pass, Severity};

fn no_params() -> Vec<(String, usize)> {
    Vec::new()
}

#[test]
fn detached_parameter_fails_grad_flow() {
    let mut spec = TapeSpec::new();
    let w = spec.leaf("w", &[2, 2]);
    // The classic bug: a second parameter whose branch never joins the loss.
    let dead = spec.leaf("encoder.w_dead", &[2, 2]);
    let dangling = spec.push(OpKind::Tanh, &[dead], &[2, 2]);
    let s = spec.push(OpKind::Square, &[w], &[2, 2]);
    let loss = spec.push(OpKind::SumAll, &[s], &[]);
    let params = vec![("w".to_string(), w), ("encoder.w_dead".to_string(), dead)];
    let r = audit("detached-param", &spec, loss, &params, &AuditOptions::default());

    assert!(r.has_errors());
    assert_eq!(r.reachable_params, 1);
    let errs: Vec<_> = r.errors().collect();
    assert_eq!(errs.len(), 2);
    assert!(errs.iter().all(|d| d.pass == Pass::GradFlow));
    assert_eq!(errs[0].node, Some(dead));
    assert_eq!(
        errs[0].msg,
        format!(
            "parameter \"encoder.w_dead\" (%{dead}) is not reachable from the loss; \
             gradient will never flow into it"
        )
    );
    // The dangling tanh is dead compute: every step would pay for it.
    assert_eq!(errs[1].node, Some(dangling));
    assert_eq!(
        errs[1].msg,
        format!("dead subgraph: %{dangling} (tanh) is computed but never reaches the loss")
    );
}

#[test]
fn ablated_branch_is_downgraded_to_info() {
    let mut spec = TapeSpec::new();
    let w = spec.leaf("w", &[2]);
    let ablated = spec.leaf("infomax.proj", &[2]);
    let s = spec.push(OpKind::Square, &[w], &[2]);
    let loss = spec.push(OpKind::SumAll, &[s], &[]);
    let params = vec![("w".to_string(), w), ("infomax.proj".to_string(), ablated)];
    let opts = AuditOptions { allow_unreachable: vec!["infomax.".to_string()] };
    let r = audit("ablated", &spec, loss, &params, &opts);

    assert!(!r.has_errors());
    assert!(r.diagnostics.iter().any(|d| d.severity == Severity::Info
        && d.msg.contains("\"infomax.proj\"")
        && d.msg.contains("ablation allow-prefix")));
}

#[test]
fn unguarded_log_reports_the_producer_chain() {
    let mut spec = TapeSpec::new();
    let w = spec.leaf_ranged("w", &[4, 4], -1.0, 1.0);
    let x = spec.constant_ranged(&[4, 4], 0.0, 1.0);
    let h = spec.push(OpKind::Matmul, &[w, x], &[4, 4]);
    let l = spec.push(OpKind::LnEps { eps: 0.0 }, &[h], &[4, 4]);
    let loss = spec.push(OpKind::SumAll, &[l], &[]);
    let r = audit("unguarded-log", &spec, loss, &no_params(), &AuditOptions::default());

    let errs: Vec<_> = r.errors().collect();
    assert_eq!(errs.len(), 1, "{}", r.render());
    assert_eq!(errs[0].pass, Pass::ValueRange);
    assert_eq!(errs[0].node, Some(l));
    assert_eq!(
        errs[0].msg,
        format!(
            "ln_eps: argument range [-4.000e0, 4.000e0] + eps=0e0 cannot exclude ln(<= 0); \
             chain: %{h} = matmul <- %{w} = leaf \"w\""
        )
    );
}

#[test]
fn softmax_guard_silences_the_log_hazard() {
    let mut spec = TapeSpec::new();
    let w = spec.leaf_ranged("w", &[4, 4], -1.0, 1.0);
    let x = spec.constant_ranged(&[4, 4], 0.0, 1.0);
    let h = spec.push(OpKind::Matmul, &[w, x], &[4, 4]);
    let sm = spec.push(OpKind::SoftmaxLastdim, &[h], &[4, 4]);
    let l = spec.push(OpKind::LnEps { eps: 1e-8 }, &[sm], &[4, 4]);
    let loss = spec.push(OpKind::SumAll, &[l], &[]);
    let r = audit("guarded-log", &spec, loss, &no_params(), &AuditOptions::default());

    assert!(!r.has_errors(), "{}", r.render());
    let ranges = r.ranges.as_ref().expect("range pass must run");
    assert_eq!(ranges.bounded, ranges.total, "{}", r.render());
}

#[test]
fn l2_normalize_denominator_is_proven_positive() {
    // x / sqrt(sum(x², axis=-1, keepdim) + eps): the exact pattern
    // `Graph::l2_normalize_lastdim` emits. No pole may fire, and the
    // quotient stays bounded however wide x is.
    let mut spec = TapeSpec::new();
    let x = spec.leaf_ranged("x", &[6, 8], -1e3, 1e3);
    let sq = spec.push(OpKind::Square, &[x], &[6, 8]);
    let s = spec.push(OpKind::SumAxis { axis: 1 }, &[sq], &[6]);
    let keep = spec.push(OpKind::Reshape { shape: vec![6, 1] }, &[s], &[6, 1]);
    let norm = spec.push(OpKind::SqrtEps { eps: 1e-8 }, &[keep], &[6, 1]);
    let d = spec.push(OpKind::Div, &[x, norm], &[6, 8]);
    let sq2 = spec.push(OpKind::Square, &[d], &[6, 8]);
    let loss = spec.push(OpKind::MeanAll, &[sq2], &[]);
    let params = vec![("x".to_string(), x)];
    let r = audit("l2-normalize", &spec, loss, &params, &AuditOptions::default());

    assert!(
        r.diagnostics.iter().all(|d| d.pass != Pass::ValueRange),
        "l2-normalize must be proven safe, got {:?}",
        r.diagnostics
    );
    let ranges = r.ranges.as_ref().expect("range pass must run");
    assert_eq!(ranges.bounded, ranges.total, "{}", r.render());
}

#[test]
fn non_scalar_loss_is_rejected() {
    let mut spec = TapeSpec::new();
    let w = spec.leaf("w", &[2, 3]);
    let loss = spec.push(OpKind::Square, &[w], &[2, 3]);
    let r = audit("vector-loss", &spec, loss, &[("w".to_string(), w)], &AuditOptions::default());
    assert!(r.has_errors());
    let errs: Vec<_> = r.errors().collect();
    assert_eq!(errs[0].pass, Pass::GradFlow);
    assert_eq!(errs[0].node, Some(loss));
    assert!(errs[0].msg.contains("has shape [2, 3]; backward needs a scalar"));
}

#[test]
fn report_renders_deterministically() {
    let build = || {
        let mut spec = TapeSpec::new();
        let w = spec.leaf("w", &[16, 8]);
        let x = spec.constant(&[8, 4]);
        let m = spec.push(OpKind::Matmul, &[w, x], &[16, 4]);
        let sm = spec.push(OpKind::SoftmaxLastdim, &[m], &[16, 4]);
        let l = spec.push(OpKind::LnEps { eps: 1e-8 }, &[sm], &[16, 4]);
        let loss = spec.push(OpKind::MeanAll, &[l], &[]);
        audit("render-fixture", &spec, loss, &[("w".to_string(), w)], &AuditOptions::default())
    };
    let a = build().render();
    let b = build().render();
    assert_eq!(a, b);
    assert!(a.contains("== graph audit: render-fixture =="));
    assert!(a.contains("grad-flow: OK (1/1 parameters reachable from the loss)"));
}

#[test]
fn hypergraph_propagation_tape_audits_clean() {
    // A tape exported from a real executed graph of the two-hop hypergraph
    // propagation (Eq. 4) over a `[Tw, H, RC]` incidence with structural
    // zeros: grad-flow and the range pass must certify it.
    use sthsl_autograd::Graph;
    use sthsl_tensor::Tensor;

    let g = Graph::new();
    let h = g.named_leaf(
        "hypergraph.h",
        Tensor::from_vec(
            vec![0.5, 0.0, 0.0, 0.0, -0.25, 0.0, 0.0, 0.75, 0.0, 0.0, 0.0, -0.5],
            &[2, 2, 3],
        )
        .unwrap(),
    );
    let e = g.constant(Tensor::from_vec(vec![1.0; 24], &[2, 3, 4]).unwrap());
    let hubs = g.batched_matmul(h, e).unwrap();
    let hubs = g.leaky_relu(hubs, 0.1);
    let ht = g.permute(h, &[0, 2, 1]).unwrap();
    let out = g.batched_matmul(ht, hubs).unwrap();
    let loss = g.sum_all(out);
    let spec = g.export_tape();
    let params = vec![("hypergraph.h".to_string(), h.index())];
    let r = audit("hypergraph", &spec, loss.index(), &params, &AuditOptions::default());

    assert!(!r.has_errors(), "{}", r.render());
    assert_eq!(r.reachable_params, 1);
    let rendered = r.render();
    let ranges = r.ranges.as_ref().expect("range pass must run");
    assert_eq!(ranges.bounded, ranges.total, "{rendered}");
    // The op is modelled by name.
    assert!(
        spec.nodes.iter().any(|n| n.kind.name() == "batched_matmul"),
        "tape must record batched_matmul nodes"
    );
}

// ---- graphcheck v2 failure classes -----------------------------------------

#[test]
fn ranged_division_through_zero_is_a_blocking_pole() {
    let mut spec = TapeSpec::new();
    let w = spec.leaf_ranged("w", &[4], 1.0, 2.0);
    let gate = spec.constant_ranged(&[4], -1.0, 1.0);
    let d = spec.push(OpKind::Div, &[w, gate], &[4]);
    let loss = spec.push(OpKind::SumAll, &[d], &[]);
    let params = vec![("w".to_string(), w)];
    let r = audit("div-pole", &spec, loss, &params, &AuditOptions::default());

    assert!(r.has_errors());
    let errs: Vec<_> = r.errors().collect();
    assert_eq!(errs.len(), 1);
    assert_eq!(errs[0].pass, Pass::ValueRange);
    assert_eq!(errs[0].node, Some(d));
    assert_eq!(
        errs[0].msg,
        format!(
            "div: denominator range [-1.000e0, 1.000e0] cannot exclude 0 \
             (x/0 mints ±inf/NaN); chain: %{gate} = constant"
        )
    );
}

#[test]
fn exp_of_a_wide_range_is_a_blocking_overflow() {
    let mut spec = TapeSpec::new();
    let w = spec.leaf_ranged("w", &[4], 0.0, 200.0);
    let e = spec.push(OpKind::Exp, &[w], &[4]);
    let loss = spec.push(OpKind::SumAll, &[e], &[]);
    let params = vec![("w".to_string(), w)];
    let r = audit("exp-overflow", &spec, loss, &params, &AuditOptions::default());

    assert!(r.has_errors());
    let errs: Vec<_> = r.errors().collect();
    assert_eq!(errs.len(), 1);
    assert_eq!(errs[0].pass, Pass::ValueRange);
    assert_eq!(errs[0].node, Some(e));
    assert!(errs[0].msg.contains("exceeds f32 range"), "{}", errs[0].msg);
    assert!(errs[0].msg.contains("chain:"), "{}", errs[0].msg);
}

#[test]
fn nan_poisoned_input_is_a_blocking_error() {
    let mut spec = TapeSpec::new();
    let x = spec.constant_ranged(&[4], f32::NAN, f32::NAN);
    let w = spec.leaf_ranged("w", &[4], -1.0, 1.0);
    let m = spec.push(OpKind::Mul, &[w, x], &[4]);
    let loss = spec.push(OpKind::SumAll, &[m], &[]);
    let params = vec![("w".to_string(), w)];
    let r = audit("nan-input", &spec, loss, &params, &AuditOptions::default());

    assert!(r.has_errors());
    let errs: Vec<_> = r.errors().collect();
    assert_eq!(errs.len(), 1);
    assert_eq!(errs[0].pass, Pass::ValueRange);
    assert_eq!(errs[0].node, Some(x));
    assert!(errs[0].msg.contains("contains NaN"), "{}", errs[0].msg);
}

/// A runtime range escaping the predicted interval is an analyzer soundness
/// violation — the cross-check that keeps the transfer functions honest.
#[test]
fn observed_range_outside_interval_is_a_soundness_error() {
    let mut spec = TapeSpec::new();
    let w = spec.leaf_ranged("w", &[4], 0.0, 1.0);
    let s = spec.push(OpKind::Square, &[w], &[4]);
    spec.nodes[s].value_range = Some((0.0, 9.0)); // impossible for x in [0,1]
    let loss = spec.push(OpKind::SumAll, &[s], &[]);
    let params = vec![("w".to_string(), w)];
    let r = audit("escaped-range", &spec, loss, &params, &AuditOptions::default());

    assert!(r.has_errors());
    let errs: Vec<_> = r.errors().collect();
    assert_eq!(errs.len(), 1);
    assert_eq!(errs[0].pass, Pass::ValueRange);
    assert_eq!(errs[0].node, Some(s));
    assert!(errs[0].msg.contains("escapes the predicted interval"), "{}", errs[0].msg);
}

/// Equal-severity, equal-pass diagnostics on different nodes must render in
/// tape order regardless of emission order (the render-order fix).
#[test]
fn report_orders_tied_diagnostics_by_node_index() {
    let mut spec = TapeSpec::new();
    let a = spec.leaf_ranged("a", &[4], 0.0, 200.0);
    let e2 = spec.push(OpKind::Exp, &[a], &[4]); // overflow at %1
    let e1 = spec.push(OpKind::Exp, &[a], &[4]); // overflow at %2
    let s = spec.push(OpKind::Add, &[e1, e2], &[4]);
    let loss = spec.push(OpKind::SumAll, &[s], &[]);
    let params = vec![("a".to_string(), a)];
    let r = audit("tied-order", &spec, loss, &params, &AuditOptions::default());

    let rendered = r.render();
    let p1 = rendered.find(&format!("%{e2} exp")).expect("first overflow rendered");
    let p2 = rendered.find(&format!("%{e1} exp")).expect("second overflow rendered");
    assert!(p1 < p2, "diagnostics must render in tape order:\n{rendered}");
    // And the full render is reproducible.
    assert_eq!(
        rendered,
        audit("tied-order", &spec, loss, &params, &AuditOptions::default()).render()
    );
}
