//! Static graph audit over the real ST-HSL model: the full configuration and
//! every named ablation variant must certify clean on both the training and
//! the serving tape (shape inference agrees with runtime everywhere, every
//! live parameter is grad-reachable, expected detachment is explained by the
//! ablation allow-prefixes), and the rendered report for a fixed seed must
//! be stable.

use sthsl_core::{Ablation, StHsl, StHslConfig};
use sthsl_data::{CrimeDataset, DatasetConfig, SynthCity, SynthConfig};
use sthsl_graphcheck::{AuditOptions, AuditReport, Severity};

fn tiny_dataset() -> CrimeDataset {
    let city = SynthCity::generate(&SynthConfig::nyc_like().scaled(4, 4, 80)).unwrap();
    CrimeDataset::from_city(
        &city,
        DatasetConfig { window: 7, val_days: 5, train_fraction: 7.0 / 8.0 },
    )
    .unwrap()
}

fn tiny_cfg() -> StHslConfig {
    StHslConfig {
        d: 4,
        num_hyperedges: 6,
        epochs: 2,
        batch_size: 2,
        max_batches_per_epoch: Some(3),
        ..StHslConfig::quick()
    }
}

/// Audit the serving tape the way `ForecastEngine`'s startup gate does.
fn serving_audit(model: &StHsl, data: &CrimeDataset) -> AuditReport {
    let (g, root, params) = model.serving_artifacts(data).unwrap();
    let indexed: Vec<(String, usize)> =
        params.iter().map(|(n, v)| (n.clone(), v.index())).collect();
    let opts = AuditOptions { allow_unreachable: model.expected_serving_inactive_prefixes() };
    sthsl_graphcheck::audit("ST-HSL (serving)", &g.export_tape(), root.index(), &indexed, &opts)
}

/// No errors, and every unreachable parameter explained by an ablation
/// allow-prefix (an Info diagnostic), never silently passed.
fn assert_clean_and_explained(label: &str, report: &AuditReport) {
    assert!(!report.has_errors(), "{label} must audit clean:\n{}", report.render());
    let unreachable = report.param_count - report.reachable_params;
    let explained = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Info && d.msg.contains("ablation allow-prefix"))
        .count();
    assert_eq!(
        unreachable,
        explained,
        "{label}: {unreachable} unreachable vs {explained} explained:\n{}",
        report.render()
    );
}

#[test]
fn full_model_certifies_clean() {
    let data = tiny_dataset();
    let model = StHsl::new(tiny_cfg(), &data).unwrap();
    let report = model.graph_audit(&data).unwrap();
    assert!(!report.has_errors(), "full model must audit clean:\n{}", report.render());
    // Every parameter is live in the full model: nothing may be downgraded.
    assert_eq!(
        report.reachable_params,
        report.param_count,
        "full model must reach all parameters:\n{}",
        report.render()
    );
    // Shape inference must cover the entire tape, not bail to runtime shapes.
    assert_eq!(report.inferred_shapes, report.node_count);
}

#[test]
fn every_named_ablation_certifies_clean() {
    let data = tiny_dataset();
    for (name, ab) in Ablation::named_variants() {
        let model = StHsl::new(tiny_cfg().with_ablation(ab), &data).unwrap();
        let report = model.graph_audit(&data).unwrap();
        assert_clean_and_explained(name, &report);
        assert_clean_and_explained(&format!("{name} serving"), &serving_audit(&model, &data));
        // graphcheck v2: every interval bounded, every op certified
        // thread-invariant, nothing over the accumulation budget.
        let ranges = report.ranges.as_ref().expect("range pass must run");
        assert_eq!(
            ranges.bounded,
            ranges.total,
            "{name}: every interval must be bounded:\n{}",
            report.render()
        );
        let det = report.determinism.as_ref().expect("determinism pass must run");
        assert!(
            det.certified_clean(),
            "{name}: determinism must certify clean:\n{}",
            report.render()
        );
        let fe = report.float_error.as_ref().expect("float-error pass must run");
        assert!(
            fe.max_own <= fe.limit,
            "{name}: accumulation depth over budget:\n{}",
            report.render()
        );
        let cost = report.cost.as_ref().expect("cost pass must run");
        assert_eq!(cost.unknown_nodes, 0, "{name}: cost model must cover the tape");
    }
}

/// The exact report for the fixed-seed tiny configuration. Pinned verbatim:
/// any drift in node count, inference coverage, memory accounting or
/// diagnostic text is a behavior change that must be reviewed, not absorbed.
///
/// Re-derived for graphcheck v2: the report now carries the interval
/// (`ranges:`), float-error, determinism and static-cost sections. Every
/// interval on the tape is bounded (the l2-normalize refinement keeps the
/// contrastive branch finite), no op exceeds the f32 accumulation budget,
/// and every op certifies thread-invariant with the 8 dropout nodes drawing
/// from the seeded rng.
///
/// Re-derived for report v3: the render now carries a stable
/// `report-version:` header (second line) so golden re-derivations across
/// PRs diff cleanly — a format migration changes only that line.
///
/// Re-derived when the CSR propagation path was deleted: each view's two
/// propagation hops are one `batched_matmul` each again (316 → 196 nodes,
/// identical FLOPs, ranges and diagnostics).
const GOLDEN_TINY_REPORT: &str = "\
== graph audit: ST-HSL ==
report-version: 3
nodes: 196   params: 21   errors: 0   warnings: 1   info: 0
shape: OK (196/196 node shapes inferred ahead of time)
grad-flow: OK (21/21 parameters reachable from the loss)
nan-taint: 0 hazard(s)
ranges: OK (196/196 intervals bounded; max |bound| 1.062e12)
float-error: max f32 chain 448 adds (budget 8192); loss path ~554 adds; 0 over-budget op(s)
determinism: OK (196/196 ops certified thread-invariant; 8 rng-seeded)
memory: tape 499.4 KiB | forward eager-free peak 46.6 KiB | backward peak 46.6 KiB (tape + grads 546.0 KiB)
  reshape                 33 node(s)  82.8 KiB
  permute                 10 node(s)  77.0 KiB
  leaky_relu              12 node(s)  71.3 KiB
  add                     18 node(s)  70.2 KiB
  dropout                  8 node(s)  56.0 KiB
  conv1d                   6 node(s)  42.0 KiB
cost: fwd 578.3 Kflop + bwd 1.15 Mflop | traffic 1.11 MiB | 1.48 flop/B
  conv2d                   2 node(s)   784.8 Kflop  26.28 flop/B
  conv1d                   6 node(s)   419.3 Kflop  4.84 flop/B
  batched_matmul           4 node(s)   258.0 Kflop  3.46 flop/B
  leaky_relu              12 node(s)    54.7 Kflop  0.37 flop/B
  add                     18 node(s)    53.9 Kflop  0.25 flop/B
  dropout                  8 node(s)    43.0 Kflop  0.37 flop/B
diagnostics:
  [warning/shape] %22 mul: broadcast expands both operands ([16, 7, 4, 1] and [4, 4] -> [16, 7, 4, 4]); check for a missing reshape/keepdim
";

#[test]
fn golden_report_for_fixed_seed_config() {
    let data = tiny_dataset();
    let model = StHsl::new(tiny_cfg(), &data).unwrap();
    let a = model.graph_audit(&data).unwrap().render();
    let b = model.graph_audit(&data).unwrap().render();
    assert_eq!(a, b, "same model + seed must render the identical report");
    assert_eq!(a, GOLDEN_TINY_REPORT);
}

#[test]
fn miswired_prefix_expectations_would_fail() {
    // Sanity-check the negative direction: a model whose ablation detaches a
    // branch, audited WITHOUT allow-prefixes, must produce grad-flow errors.
    let data = tiny_dataset();
    let cfg = tiny_cfg().with_ablation(Ablation::without_global());
    let model = StHsl::new(cfg, &data).unwrap();
    let (g, loss, params) = model.audit_artifacts(&data).unwrap();
    let spec = g.export_tape();
    let indexed: Vec<(String, usize)> =
        params.iter().map(|(n, v)| (n.clone(), v.index())).collect();
    let report = sthsl_graphcheck::audit(
        "ST-HSL (no allowances)",
        &spec,
        loss.index(),
        &indexed,
        &sthsl_graphcheck::AuditOptions::default(),
    );
    assert!(report.has_errors(), "detached global branch must be an error without allow-prefixes");
    assert!(report.errors().any(|d| d.msg.contains("hypergraph.")));
}
