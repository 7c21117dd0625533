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
fn mismatched_matmul_is_rejected_with_var_chain() {
    let mut spec = TapeSpec::new();
    let w = spec.leaf("w", &[3, 4]);
    let x = spec.constant(&[5, 2]);
    let m = spec.push(OpKind::Matmul, &[w, x]);
    let loss = spec.push(OpKind::SumAll, &[m]);
    let params = vec![("w".to_string(), w)];
    let r = audit("mismatched-matmul", &spec, loss, &params, &AuditOptions::default());

    assert!(r.has_errors());
    let errs: Vec<_> = r.errors().collect();
    assert_eq!(errs.len(), 1);
    assert_eq!(errs[0].pass, Pass::Shape);
    assert_eq!(errs[0].node, Some(m));
    assert_eq!(
        errs[0].msg,
        format!(
            "matmul: expected [m,k] · [k,n], got [3, 4] · [5, 2]; \
             chain: %{m} = matmul <- %{w} = leaf \"w\""
        )
    );
}

#[test]
fn detached_parameter_fails_grad_flow() {
    let mut spec = TapeSpec::new();
    let w = spec.leaf("w", &[2, 2]);
    // The classic bug: a second parameter whose branch never joins the loss.
    let dead = spec.leaf("encoder.w_dead", &[2, 2]);
    let _dangling = spec.push(OpKind::Tanh, &[dead]);
    let s = spec.push(OpKind::Square, &[w]);
    let loss = spec.push(OpKind::SumAll, &[s]);
    let params = vec![("w".to_string(), w), ("encoder.w_dead".to_string(), dead)];
    let r = audit("detached-param", &spec, loss, &params, &AuditOptions::default());

    assert!(r.has_errors());
    assert_eq!(r.reachable_params, 1);
    let errs: Vec<_> = r.errors().collect();
    assert_eq!(errs.len(), 1);
    assert_eq!(errs[0].pass, Pass::GradFlow);
    assert_eq!(errs[0].node, Some(dead));
    assert_eq!(
        errs[0].msg,
        format!(
            "parameter \"encoder.w_dead\" (%{dead}) is not reachable from the loss; \
             gradient will never flow into it"
        )
    );
    // The dangling tanh is additionally flagged as dead compute.
    assert!(r
        .diagnostics
        .iter()
        .any(|d| d.severity == Severity::Warning && d.msg.contains("dead subgraph")));
}

#[test]
fn ablated_branch_is_downgraded_to_info() {
    let mut spec = TapeSpec::new();
    let w = spec.leaf("w", &[2]);
    let ablated = spec.leaf("infomax.proj", &[2]);
    let s = spec.push(OpKind::Square, &[w]);
    let loss = spec.push(OpKind::SumAll, &[s]);
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
    let w = spec.leaf("w", &[4, 4]);
    let x = spec.constant(&[4, 4]);
    let h = spec.push(OpKind::Matmul, &[w, x]);
    let l = spec.push(OpKind::LnEps { eps: 0.0 }, &[h]);
    let loss = spec.push(OpKind::SumAll, &[l]);
    let r = audit("unguarded-log", &spec, loss, &no_params(), &AuditOptions::default());

    let hazards: Vec<_> = r.diagnostics.iter().filter(|d| d.pass == Pass::NanTaint).collect();
    assert_eq!(hazards.len(), 1);
    assert_eq!(hazards[0].severity, Severity::Warning);
    assert_eq!(hazards[0].node, Some(l));
    assert_eq!(
        hazards[0].msg,
        format!(
            "ln_eps: argument of ln_eps(eps=0e0) is not provably positive \
             (operand %{h} = matmul); chain: %{h} = matmul <- %{w} = leaf \"w\""
        )
    );
}

#[test]
fn softmax_guard_silences_the_log_hazard() {
    let mut spec = TapeSpec::new();
    let w = spec.leaf("w", &[4, 4]);
    let x = spec.constant(&[4, 4]);
    let h = spec.push(OpKind::Matmul, &[w, x]);
    let sm = spec.push(OpKind::SoftmaxLastdim, &[h]);
    let l = spec.push(OpKind::LnEps { eps: 1e-8 }, &[sm]);
    let _loss = spec.push(OpKind::SumAll, &[l]);
    let loss = spec.nodes.len() - 1;
    let r = audit("guarded-log", &spec, loss, &no_params(), &AuditOptions::default());
    assert!(r.diagnostics.iter().all(|d| d.pass != Pass::NanTaint));
}

#[test]
fn l2_normalize_denominator_is_proven_positive() {
    // x / sqrt(sum(x², axis=-1, keepdim) + eps): the exact pattern
    // `Graph::l2_normalize_lastdim` emits. No hazard may fire.
    let mut spec = TapeSpec::new();
    let x = spec.leaf("x", &[6, 8]);
    let sq = spec.push(OpKind::Square, &[x]);
    let s = spec.push(OpKind::SumAxis { axis: 1 }, &[sq]);
    let keep = spec.push(OpKind::Reshape { shape: vec![6, 1] }, &[s]);
    let norm = spec.push(OpKind::SqrtEps { eps: 1e-8 }, &[keep]);
    let d = spec.push(OpKind::Div, &[x, norm]);
    let sq2 = spec.push(OpKind::Square, &[d]);
    let loss = spec.push(OpKind::MeanAll, &[sq2]);
    let params = vec![("x".to_string(), x)];
    let r = audit("l2-normalize", &spec, loss, &params, &AuditOptions::default());

    assert!(!r.has_errors());
    assert!(
        r.diagnostics.iter().all(|d| d.pass != Pass::NanTaint),
        "l2-normalize must be proven safe, got {:?}",
        r.diagnostics
    );
}

#[test]
fn non_scalar_loss_is_rejected() {
    let mut spec = TapeSpec::new();
    let w = spec.leaf("w", &[2, 3]);
    let loss = spec.push(OpKind::Square, &[w]);
    let r = audit("vector-loss", &spec, loss, &[("w".to_string(), w)], &AuditOptions::default());
    assert!(r.has_errors());
    let errs: Vec<_> = r.errors().collect();
    assert_eq!(errs[0].pass, Pass::GradFlow);
    assert_eq!(errs[0].node, Some(loss));
    assert!(errs[0].msg.contains("has shape [2, 3]; backward needs a scalar"));
}

#[test]
fn double_expansion_broadcast_warns() {
    // [N,1] * [1,C]: legal outer product, classic missing-keepdim symptom.
    let mut spec = TapeSpec::new();
    let a = spec.leaf("a", &[5, 1]);
    let b = spec.leaf("b", &[1, 3]);
    let m = spec.push(OpKind::Mul, &[a, b]);
    let loss = spec.push(OpKind::SumAll, &[m]);
    let r = audit(
        "double-expand",
        &spec,
        loss,
        &[("a".to_string(), a), ("b".to_string(), b)],
        &AuditOptions::default(),
    );
    assert!(!r.has_errors());
    let warns: Vec<_> = r
        .diagnostics
        .iter()
        .filter(|d| d.pass == Pass::Shape && d.severity == Severity::Warning)
        .collect();
    assert_eq!(warns.len(), 1);
    assert_eq!(warns[0].node, Some(m));
    assert!(warns[0].msg.contains("broadcast expands both operands"));
    assert!(warns[0].msg.contains("[5, 1]") && warns[0].msg.contains("[1, 3]"));
}

#[test]
fn inference_runtime_disagreement_is_an_error() {
    // Simulates an inference-rule bug or a corrupted tape: the recorded
    // runtime shape contradicts what the rules derive.
    let mut spec = TapeSpec::new();
    let w = spec.leaf("w", &[2, 2]);
    let s = spec.push(OpKind::Square, &[w]);
    spec.nodes[s].runtime_shape = Some(vec![4]);
    let loss = spec.push(OpKind::SumAll, &[s]);
    let r = audit("rt-disagree", &spec, loss, &[("w".to_string(), w)], &AuditOptions::default());
    assert!(r.has_errors());
    assert!(r
        .errors()
        .any(|d| d.msg.contains("inferred shape [2, 2] disagrees with runtime shape [4]")));
}

#[test]
fn report_renders_deterministically() {
    let build = || {
        let mut spec = TapeSpec::new();
        let w = spec.leaf("w", &[16, 8]);
        let x = spec.constant(&[8, 4]);
        let m = spec.push(OpKind::Matmul, &[w, x]);
        let sm = spec.push(OpKind::SoftmaxLastdim, &[m]);
        let l = spec.push(OpKind::LnEps { eps: 1e-8 }, &[sm]);
        let loss = spec.push(OpKind::MeanAll, &[l]);
        audit("render-fixture", &spec, loss, &[("w".to_string(), w)], &AuditOptions::default())
    };
    let a = build().render();
    let b = build().render();
    assert_eq!(a, b);
    assert!(a.contains("== graph audit: render-fixture =="));
    assert!(a.contains("shape: OK"));
    assert!(a.contains("grad-flow: OK (1/1 parameters reachable from the loss)"));
    assert!(a.contains("nan-taint: 0 hazard(s)"));
    assert!(a.contains("memory: tape"));
}

#[test]
fn hypergraph_propagation_tape_audits_clean() {
    // A tape exported from a real executed graph of the two-hop hypergraph
    // propagation (Eq. 4) over a `[Tw, H, RC]` incidence with structural
    // zeros: shape inference, grad-flow and NaN-taint must all certify it.
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
    assert!(rendered.contains("shape: OK"), "{rendered}");
    assert!(rendered.contains("nan-taint: 0 hazard(s)"), "{rendered}");
    // The op is modelled by name, not hidden behind an opaque escape hatch.
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
    let d = spec.push(OpKind::Div, &[w, gate]);
    let loss = spec.push(OpKind::SumAll, &[d]);
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
    let e = spec.push(OpKind::Exp, &[w]);
    let loss = spec.push(OpKind::SumAll, &[e]);
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
    let m = spec.push(OpKind::Mul, &[w, x]);
    let loss = spec.push(OpKind::SumAll, &[m]);
    let params = vec![("w".to_string(), w)];
    let r = audit("nan-input", &spec, loss, &params, &AuditOptions::default());

    assert!(r.has_errors());
    let errs: Vec<_> = r.errors().collect();
    assert_eq!(errs.len(), 1);
    assert_eq!(errs[0].pass, Pass::ValueRange);
    assert_eq!(errs[0].node, Some(x));
    assert!(errs[0].msg.contains("contains NaN"), "{}", errs[0].msg);
}

/// The PR-5 metric-bug class: a naive f32 accumulation over 100k elements.
/// An advisory warning, not an error — deep chains lose precision, they
/// don't crash.
#[test]
fn deep_f32_accumulation_is_flagged() {
    let mut spec = TapeSpec::new();
    let w = spec.leaf("w", &[2, 100_000]);
    let s = spec.push(OpKind::SumAxis { axis: 1 }, &[w]);
    let loss = spec.push(OpKind::SumAll, &[s]);
    let params = vec![("w".to_string(), w)];
    let r = audit("deep-accum", &spec, loss, &params, &AuditOptions::default());

    assert!(!r.has_errors(), "advisory only:\n{}", r.render());
    let flagged: Vec<_> = r.diagnostics.iter().filter(|d| d.pass == Pass::FloatError).collect();
    assert_eq!(flagged.len(), 1);
    assert_eq!(flagged[0].severity, Severity::Warning);
    assert_eq!(flagged[0].node, Some(s));
    assert!(
        flagged[0].msg.contains("100000 sequential adds exceeds max-accum-depth 8192"),
        "{}",
        flagged[0].msg
    );
}

#[test]
fn thread_order_dependent_schedule_fails_determinism() {
    use sthsl_autograd::{PartitionStrategy, ReductionOrder, ScheduleMeta};
    let mut spec = TapeSpec::new();
    let w = spec.leaf("w", &[8, 8]);
    // Model a foreign op whose scatter commits in thread order.
    let scatter = ScheduleMeta {
        partition: PartitionStrategy::RowBands,
        reduction: ReductionOrder::ThreadOrderDependent,
        uses_rng: false,
        uses_clock: false,
    };
    let s = spec.push_scheduled(OpKind::SumAll, &[w], scatter);
    let params = vec![("w".to_string(), w)];
    let r = audit("toc-scatter", &spec, s, &params, &AuditOptions::default());

    assert!(r.has_errors());
    let errs: Vec<_> = r.errors().collect();
    assert_eq!(errs.len(), 1);
    assert_eq!(errs[0].pass, Pass::Determinism);
    assert_eq!(errs[0].node, Some(s));
    assert!(
        errs[0].msg.contains("thread-order-dependent (row-bands/thread-order-dependent)"),
        "{}",
        errs[0].msg
    );
}

#[test]
fn opaque_ops_cannot_be_certified_deterministic() {
    let mut spec = TapeSpec::new();
    let w = spec.leaf("w", &[4]);
    let o = spec.push(OpKind::Opaque { name: "foreign_kernel" }, &[w]);
    let loss = spec.push(OpKind::SumAll, &[o]);
    let params = vec![("w".to_string(), w)];
    let r = audit("opaque-determinism", &spec, loss, &params, &AuditOptions::default());

    // Opaque ops already draw shape/grad warnings; the determinism pass adds
    // its own uncertifiable warning without escalating to an error.
    let det: Vec<_> = r.diagnostics.iter().filter(|d| d.pass == Pass::Determinism).collect();
    assert_eq!(det.len(), 1);
    assert_eq!(det[0].severity, Severity::Warning);
    assert_eq!(det[0].node, Some(o));
    assert!(det[0].msg.contains("cannot be certified"), "{}", det[0].msg);
}

/// A runtime range escaping the predicted interval is an analyzer soundness
/// violation — the cross-check that keeps the transfer functions honest.
#[test]
fn observed_range_outside_interval_is_a_soundness_error() {
    let mut spec = TapeSpec::new();
    let w = spec.leaf_ranged("w", &[4], 0.0, 1.0);
    let s = spec.push(OpKind::Square, &[w]);
    spec.nodes[s].runtime_shape = Some(vec![4]);
    spec.nodes[s].value_range = Some((0.0, 9.0)); // impossible for x in [0,1]
    let loss = spec.push(OpKind::SumAll, &[s]);
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
    let e2 = spec.push(OpKind::Exp, &[a]); // overflow at %1
    let e1 = spec.push(OpKind::Exp, &[a]); // overflow at %2
    let s = spec.push(OpKind::Add, &[e1, e2]);
    let loss = spec.push(OpKind::SumAll, &[s]);
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
