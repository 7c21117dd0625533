//! Integration tests of the paper's ablation claims at miniature scale:
//! every Table IV / Fig. 5 variant must train without error, and the full
//! model should not be dominated by its own ablations on average.

use sthsl::prelude::*;

fn dataset() -> CrimeDataset {
    let city = SynthCity::generate(&SynthConfig::nyc_like().scaled(5, 5, 120)).unwrap();
    CrimeDataset::from_city(
        &city,
        DatasetConfig { window: 10, val_days: 7, train_fraction: 7.0 / 8.0 },
    )
    .unwrap()
}

fn cfg(ablation: Ablation) -> StHslConfig {
    StHslConfig {
        d: 4,
        num_hyperedges: 8,
        epochs: 4,
        batch_size: 4,
        max_batches_per_epoch: Some(6),
        ..StHslConfig::quick()
    }
    .with_ablation(ablation)
}

#[test]
fn every_ablation_variant_trains_and_evaluates() {
    let data = dataset();
    for ablation in Ablation::ALL {
        let mut model = StHsl::new(cfg(ablation), &data).unwrap();
        let fit = model.fit(&data).unwrap_or_else(|e| panic!("{ablation:?}: fit failed: {e}"));
        assert!(fit.final_loss.is_finite(), "{ablation:?}: non-finite loss");
        let report = model.evaluate(&data).unwrap();
        assert!(report.mae_overall().is_finite(), "{ablation:?}: bad MAE");
        assert!(report.mae_overall() < 25.0, "{ablation:?}: absurd MAE {}", report.mae_overall());
    }
}

#[test]
fn full_model_is_not_dominated_by_ablations() {
    // At this miniature scale individual ablations can tie or flip, but the
    // full model must beat the *average* of the SSL ablations — the paper's
    // central Table IV finding in aggregate form.
    let data = dataset();
    let mut full = StHsl::new(cfg(Ablation::Full), &data).unwrap();
    full.fit(&data).unwrap();
    let full_mae = full.evaluate(&data).unwrap().mae_overall();

    let ssl_variants = [Ablation::NoHypergraph, Ablation::NoLocal, Ablation::NoGlobal];
    let mut sum = 0.0f64;
    for ab in ssl_variants {
        let mut m = StHsl::new(cfg(ab), &data).unwrap();
        m.fit(&data).unwrap();
        sum += m.evaluate(&data).unwrap().mae_overall();
    }
    let avg_ablated = sum / ssl_variants.len() as f64;
    assert!(
        full_mae <= avg_ablated * 1.1,
        "full model MAE {full_mae} clearly dominated by ablation average {avg_ablated}"
    );
}

#[test]
fn ablation_flags_change_parameter_usage() {
    // The fusion variant has a wider head: more parameters than the full
    // model; "w/o Global"-style variants still allocate (but don't use) the
    // hypergraph. Parameter counts expose the wiring differences.
    let data = dataset();
    let full = StHsl::new(cfg(Ablation::Full), &data).unwrap();
    let fusion = StHsl::new(cfg(Ablation::Fusion), &data).unwrap();
    assert!(fusion.num_parameters() > full.num_parameters());
}
