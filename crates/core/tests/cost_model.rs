//! Cross-validation of the static cost model against the runtime profiler.
//!
//! The static model's `out_bytes` column uses exactly the convention the
//! delta-tape profiler measures (4 bytes per output element, every recorded
//! op), so for the same graph the *rankings* must agree — not approximately,
//! but family for family. The deterministic half of this suite pins that
//! agreement (and the rank correlation) as a golden; the wall-clock half
//! only asserts a loose property, because real timings on a tiny model are
//! noisy.

use std::collections::BTreeMap;
use std::rc::Rc;

use sthsl_autograd::{Graph, TapeObserver, TapePhase};
use sthsl_core::{StHsl, StHslConfig};
use sthsl_data::{CrimeDataset, DatasetConfig, SynthCity, SynthConfig};
use sthsl_obs::{Clock, FakeClock, TapeProfiler, WallClock};

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

/// Forward-phase bytes per op family, measured by the profiler over the same
/// recording `graph_audit` analyzes.
fn measured_forward_bytes(clock: Rc<dyn Clock>) -> Vec<(String, u64)> {
    let data = tiny_dataset();
    let model = StHsl::new(tiny_cfg(), &data).unwrap();
    let profiler = TapeProfiler::shared(clock);
    let g = Graph::training(tiny_cfg().seed);
    g.set_observer(Rc::clone(&profiler) as Rc<dyn TapeObserver>);
    let (_loss, _params) = model.record_training_graph(&g, &data).unwrap();
    let report = profiler.report(usize::MAX);
    let mut per_family: BTreeMap<String, u64> = BTreeMap::new();
    for row in &report.rows {
        if row.phase == TapePhase::Forward {
            *per_family.entry(row.name.clone()).or_default() += row.bytes;
        }
    }
    let mut ranked: Vec<(String, u64)> = per_family.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked
}

/// Spearman rank correlation between two identical-member rankings, in
/// per-mille (1000 = perfect agreement). Integer math end to end so the
/// pinned value can never drift with float rounding.
fn spearman_permille(a: &[String], b: &[String]) -> i64 {
    assert_eq!(a.len(), b.len(), "rankings must cover the same families");
    let n = a.len() as i64;
    if n < 2 {
        return 1000;
    }
    let pos_b: BTreeMap<&str, i64> =
        b.iter().enumerate().map(|(i, s)| (s.as_str(), i as i64)).collect();
    let d2: i64 = a
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let d = i as i64 - pos_b[s.as_str()];
            d * d
        })
        .sum();
    1000 - 6000 * d2 / (n * (n * n - 1))
}

/// Deterministic cross-validation: the static `out_bytes` ranking and the
/// profiler's measured forward-bytes ranking must be the same list, family
/// for family, and the pinned top-3 must be exactly the golden.
#[test]
fn static_bytes_ranking_matches_profiler_exactly() {
    let data = tiny_dataset();
    let model = StHsl::new(tiny_cfg(), &data).unwrap();
    let report = model.graph_audit(&data).unwrap();
    let cost = report.cost.as_ref().expect("cost pass must run");
    let static_ranked: Vec<(String, u64)> = cost
        .ranked_by_out_bytes()
        .into_iter()
        .map(|(name, row)| (name.to_string(), u64::try_from(row.out_bytes).unwrap()))
        .collect();

    let measured_ranked = measured_forward_bytes(Rc::new(FakeClock::new(100)));

    // Same families, same bytes, same order — the static model is not an
    // approximation of the bytes column, it is the same number derived
    // without running the graph.
    assert_eq!(static_ranked, measured_ranked);

    // Golden pin: the measured/static top-3 hot families by output bytes
    // for the fixed tiny configuration. Re-pinned when the CSR propagation
    // path was deleted: its per-window slices no longer add reshapes and
    // leaky_relus, and the dense path's `[Tw, RC, H]` transpose is a permute.
    let top3: Vec<&str> = static_ranked.iter().take(3).map(|(n, _)| n.as_str()).collect();
    assert_eq!(top3, ["reshape", "permute", "leaky_relu"]);

    // Golden pin: perfect rank correlation, in integer per-mille.
    let a: Vec<String> = static_ranked.iter().map(|(n, _)| n.clone()).collect();
    let b: Vec<String> = measured_ranked.iter().map(|(n, _)| n.clone()).collect();
    assert_eq!(spearman_permille(&a, &b), 1000);
}

/// Loose wall-clock sanity: among the top-5 families the static model says
/// dominate FLOPs, at least one shows up in the top-5 by measured wall time
/// (forward + backward). Tiny-model timings are noisy, so this is an
/// intersection test, not a ranking pin.
#[test]
fn static_flops_ranking_overlaps_measured_wall_time() {
    let data = tiny_dataset();
    let model = StHsl::new(tiny_cfg(), &data).unwrap();
    let report = model.graph_audit(&data).unwrap();
    let cost = report.cost.as_ref().expect("cost pass must run");
    let static_top: Vec<&str> = cost.ranked().into_iter().take(5).map(|(name, _)| name).collect();

    let profiler_data = tiny_dataset();
    let profiled = StHsl::new(tiny_cfg(), &profiler_data).unwrap();
    let profiler = TapeProfiler::shared(Rc::new(WallClock::new()) as Rc<dyn Clock>);
    let g = Graph::training(tiny_cfg().seed);
    g.set_observer(Rc::clone(&profiler) as Rc<dyn TapeObserver>);
    let (loss, _params) = profiled.record_training_graph(&g, &profiler_data).unwrap();
    g.backward(loss).unwrap();
    let prof = profiler.report(usize::MAX);
    let mut ns_by_name: BTreeMap<String, u64> = BTreeMap::new();
    for row in &prof.rows {
        *ns_by_name.entry(row.name.clone()).or_default() += row.total_ns;
    }
    let mut measured: Vec<(String, u64)> = ns_by_name.into_iter().collect();
    measured.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let measured_top: Vec<&str> = measured.iter().take(5).map(|(n, _)| n.as_str()).collect();

    assert!(
        static_top.iter().any(|n| measured_top.contains(n)),
        "no overlap between static hot ops {static_top:?} and measured {measured_top:?}"
    );
}
